// Package plan defines the logical project-join plans that every
// optimization method in this repository produces, plus structural
// analysis over them (output schemas, width, validation).
//
// A plan is a binary tree of Scan, Join, and Project nodes. All of the
// paper's methods — straightforward, early projection, greedy reordering,
// and bucket elimination — differ only in the shape of this tree; one
// executor (package engine) evaluates them all, and one renderer (package
// sqlgen) prints them in the paper's SQL dialect.
package plan

import (
	"fmt"
	"slices"
	"strings"

	"projpush/internal/cq"
)

// Node is a node of a project-join plan.
type Node interface {
	// Attrs returns the node's output schema in column order.
	Attrs() []cq.Var
	// Children returns the node's inputs (nil for Scan).
	Children() []Node

	fmt.Stringer
}

// Scan reads one atom: the named database relation with columns bound to
// the atom's variables.
type Scan struct {
	Atom cq.Atom
}

// Attrs returns the atom's variables.
func (s *Scan) Attrs() []cq.Var { return s.Atom.Args }

// Children returns nil.
func (s *Scan) Children() []Node { return nil }

func (s *Scan) String() string { return s.Atom.String() }

// Join is the natural join of two subplans. Its output schema is the left
// schema followed by right-only attributes, matching relation.Join.
type Join struct {
	Left, Right Node
}

// Attrs returns the joined schema. It rebuilds every schema below j, so
// code that grows or walks a deep tree carries the running schema with
// JoinAttrs instead of asking each node.
func (j *Join) Attrs() []cq.Var { return JoinAttrs(j.Left.Attrs(), j.Right.Attrs()) }

// JoinAttrs is the schema of the join of inputs with schemas l and r: l
// followed by r's attributes not in l.
func JoinAttrs(l, r []cq.Var) []cq.Var {
	out := append(make([]cq.Var, 0, len(l)+len(r)), l...)
	for _, a := range r {
		if !slices.Contains(l, a) {
			out = append(out, a)
		}
	}
	return out
}

// Children returns the two inputs.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

func (j *Join) String() string {
	return "(" + j.Left.String() + " ⋈ " + j.Right.String() + ")"
}

// Project projects its child onto Cols with duplicate elimination (the
// paper's SELECT DISTINCT subqueries).
type Project struct {
	Child Node
	Cols  []cq.Var
}

// Attrs returns Cols.
func (p *Project) Attrs() []cq.Var { return p.Cols }

// Children returns the single input.
func (p *Project) Children() []Node { return []Node{p.Child} }

func (p *Project) String() string {
	var b strings.Builder
	b.WriteString("π{")
	for i, c := range p.Cols {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "x%d", c)
	}
	b.WriteString("}")
	b.WriteString(p.Child.String())
	return b.String()
}

// Stats summarizes the structure of a plan. Width is the paper's key
// metric: the maximum arity over every node's output schema, which for a
// projection-pushed plan equals the width of the corresponding
// join-expression tree.
type Stats struct {
	// Width is the maximum output arity over all nodes.
	Width int
	// Joins, Projects, Scans count node kinds.
	Joins, Projects, Scans int
	// Depth is the height of the tree (a single Scan has depth 1).
	Depth int
}

// Analyze walks the plan and returns its structural statistics.
func Analyze(n Node) Stats {
	var s Stats
	_, s.Depth = schemas(n, func(n Node, attrs []cq.Var) {
		s.Width = max(s.Width, len(attrs))
		switch n.(type) {
		case *Scan:
			s.Scans++
		case *Join:
			s.Joins++
		case *Project:
			s.Projects++
		}
	})
	return s
}

// schemas calls visit on every node of the tree under n, children first,
// with the node's output schema, and returns n's schema and height. Each
// schema is built once, from its children's.
func schemas(n Node, visit func(Node, []cq.Var)) (attrs []cq.Var, depth int) {
	switch t := n.(type) {
	case *Scan:
		attrs = t.Atom.Args
	case *Join:
		l, ld := schemas(t.Left, visit)
		r, rd := schemas(t.Right, visit)
		attrs, depth = JoinAttrs(l, r), max(ld, rd)
	case *Project:
		_, depth = schemas(t.Child, visit)
		attrs = t.Cols
	}
	visit(n, attrs)
	return attrs, depth + 1
}

// Atoms returns the scan atoms of the plan in left-to-right order.
func Atoms(n Node) []cq.Atom {
	var out []cq.Atom
	var walk func(Node)
	walk = func(n Node) {
		if s, ok := n.(*Scan); ok {
			out = append(out, s.Atom)
			return
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	return out
}

// Validate checks that the plan is a faithful evaluation strategy for q:
// its scans are exactly q's atoms (as a multiset), every projection keeps a
// subset of its child's schema, no projection drops a variable that is
// still needed (occurs in an unscanned atom or the target schema), and the
// root's schema is exactly q's free variables.
func Validate(n Node, q *cq.Query) error {
	// Scans must be exactly the query atoms, as a multiset.
	want := make(map[string]int)
	for _, a := range q.Atoms {
		want[a.String()]++
	}
	for _, a := range Atoms(n) {
		k := a.String()
		if want[k] == 0 {
			return fmt.Errorf("plan: scan %s is not a (remaining) query atom", k)
		}
		want[k]--
	}
	for k, c := range want {
		if c != 0 {
			return fmt.Errorf("plan: query atom %s missing from plan", k)
		}
	}

	// Projections must keep subsets of their child schema and must not
	// kill a variable needed outside the subtree.
	if err := validateSubtree(n, q, rootContext(q)); err != nil {
		return err
	}

	// Root schema must equal the free variables as a set.
	root := n.Attrs()
	if len(root) != len(q.Free) {
		return fmt.Errorf("plan: root schema %v != free variables %v", root, q.Free)
	}
	free := make(map[cq.Var]bool, len(q.Free))
	for _, v := range q.Free {
		free[v] = true
	}
	for _, v := range root {
		if !free[v] {
			return fmt.Errorf("plan: root schema %v != free variables %v", root, q.Free)
		}
	}
	return nil
}

// rootContext counts the references that are outside the whole plan tree:
// only the target schema. References from sibling subtrees are added as
// validateSubtree descends through joins.
func rootContext(q *cq.Query) map[cq.Var]int {
	need := make(map[cq.Var]int)
	for _, v := range q.Free {
		need[v]++
	}
	return need
}

// validateSubtree checks projection safety. outside maps each variable to
// the number of references to it outside the current subtree (including
// the target schema). A projection may drop a variable only if the
// variable has no outside references.
func validateSubtree(n Node, q *cq.Query, outside map[cq.Var]int) error {
	switch t := n.(type) {
	case *Scan:
		return nil
	case *Project:
		childAttrs := make(map[cq.Var]bool)
		for _, a := range t.Child.Attrs() {
			childAttrs[a] = true
		}
		kept := make(map[cq.Var]bool)
		for _, c := range t.Cols {
			if !childAttrs[c] {
				return fmt.Errorf("plan: projection keeps x%d not in child schema", c)
			}
			if kept[c] {
				return fmt.Errorf("plan: projection repeats column x%d", c)
			}
			kept[c] = true
		}
		for a := range childAttrs {
			if !kept[a] && outside[a] > 0 {
				return fmt.Errorf("plan: projection drops x%d, still referenced outside the subtree", a)
			}
		}
		return validateSubtree(t.Child, q, outside)
	case *Join:
		// References outside the left subtree include everything in the
		// right subtree, and vice versa.
		leftOutside := addCounts(outside, subtreeCounts(t.Right))
		if err := validateSubtree(t.Left, q, leftOutside); err != nil {
			return err
		}
		rightOutside := addCounts(outside, subtreeCounts(t.Left))
		return validateSubtree(t.Right, q, rightOutside)
	default:
		return fmt.Errorf("plan: unknown node type %T", n)
	}
}

// subtreeCounts counts variable occurrences in the scans of a subtree.
func subtreeCounts(n Node) map[cq.Var]int {
	c := make(map[cq.Var]int)
	for _, a := range Atoms(n) {
		for _, v := range a.Args {
			c[v]++
		}
	}
	return c
}

func addCounts(a, b map[cq.Var]int) map[cq.Var]int {
	out := make(map[cq.Var]int, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] += v
	}
	return out
}

// Equal reports whether two plans are structurally identical (same shapes,
// atoms, and projection columns in the same order).
func Equal(a, b Node) bool {
	switch x := a.(type) {
	case *Scan:
		y, ok := b.(*Scan)
		if !ok || x.Atom.Rel != y.Atom.Rel || len(x.Atom.Args) != len(y.Atom.Args) {
			return false
		}
		for i := range x.Atom.Args {
			if x.Atom.Args[i] != y.Atom.Args[i] {
				return false
			}
		}
		return true
	case *Join:
		y, ok := b.(*Join)
		return ok && Equal(x.Left, y.Left) && Equal(x.Right, y.Right)
	case *Project:
		y, ok := b.(*Project)
		if !ok || len(x.Cols) != len(y.Cols) {
			return false
		}
		for i := range x.Cols {
			if x.Cols[i] != y.Cols[i] {
				return false
			}
		}
		return Equal(x.Child, y.Child)
	default:
		return false
	}
}

// LeftDeepJoin builds (..((a1 ⋈ a2) ⋈ a3).. ⋈ am) over the given scans,
// with no projections — the shape of the paper's straightforward method
// before the final projection.
func LeftDeepJoin(nodes []Node) Node {
	if len(nodes) == 0 {
		panic("plan.LeftDeepJoin: no nodes")
	}
	cur := nodes[0]
	for _, n := range nodes[1:] {
		cur = &Join{Left: cur, Right: n}
	}
	return cur
}
