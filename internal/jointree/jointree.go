// Package jointree is the query-level structural layer over treedec's
// graphs: join graphs, acyclicity, hypertree guards and the paper's
// join-expression trees (Section 5), evaluation orders for project-join
// queries in which joins are evaluated bottom-up and projection is applied
// as early as possible.
//
// A join-expression tree node carries a working label L_w (the schema of
// the intermediate relation computed at the node) and a projected label
// L_p (the columns passed to the parent). The width of the tree is the
// maximum working-label size; minimized over all trees this is the query's
// join width, which Theorem 1 identifies as treewidth(join graph) + 1.
//
// The package provides both directions of that theorem:
//
//   - FromDecomposition (Algorithm 3, via the Mark-and-Sweep of
//     Algorithm 2) converts a tree decomposition of the join graph into a
//     join-expression tree whose width is at most the decomposition width
//     plus one.
//   - ToDecomposition (Algorithm 1) converts a join-expression tree back
//     into a tree decomposition of width = join-tree width − 1.
//
// ToPlan lowers a join-expression tree to an executable plan, and Analyze
// computes the query's whole structure — join graph, MCS order,
// decomposition and join tree — once, for every consumer to read.
package jointree

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"projpush/internal/cq"
	"projpush/internal/plan"
	"projpush/internal/treedec"
)

// Node is a join-expression tree node.
type Node struct {
	// Atom is non-nil exactly for leaves, which read one query atom.
	Atom *cq.Atom
	// Children are the subtrees joined at this node (empty for leaves).
	Children []*Node
	// Working is L_w: the schema of the relation computed here. For a
	// leaf it is the atom's variables; for an interior node, the union
	// of the children's projected labels.
	Working []cq.Var
	// Projected is L_p: the columns this node passes upward — the
	// subset of Working still needed outside the subtree (the target
	// schema, for the root).
	Projected []cq.Var
}

// Tree is a rooted join-expression tree for a query.
type Tree struct {
	Root  *Node
	Query *cq.Query
}

// Width returns the width of the tree: the maximum working-label size
// over all nodes.
func (t *Tree) Width() int {
	w := 0
	var walk func(*Node)
	walk = func(n *Node) {
		if len(n.Working) > w {
			w = len(n.Working)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return w
}

// Validate checks the join-expression tree invariants: leaves carry atoms
// with Working = atom variables; interior working labels are the union of
// children's projected labels; projected labels are subsets of working
// labels; the root's projected label equals the query's target schema;
// and the leaf atoms are exactly the query's atoms.
func (t *Tree) Validate() error {
	var leafAtoms []*cq.Atom
	// One scratch set serves every node: each node is checked before its
	// children are entered.
	set := make(map[cq.Var]bool)
	var walk func(n *Node) error
	walk = func(n *Node) error {
		clear(set)
		if n.Atom != nil {
			if len(n.Children) != 0 {
				return fmt.Errorf("jointree: leaf with children")
			}
			leafAtoms = append(leafAtoms, n.Atom)
			for _, v := range n.Working {
				set[v] = true
			}
			same := len(n.Working) == len(n.Atom.Args)
			for _, v := range n.Atom.Args {
				same = same && set[v]
			}
			if !same {
				return fmt.Errorf("jointree: leaf working label %v != atom vars %v",
					n.Working, n.Atom.Args)
			}
		} else {
			if len(n.Children) == 0 {
				return fmt.Errorf("jointree: interior node with no children")
			}
			for _, c := range n.Children {
				for _, v := range c.Projected {
					set[v] = true
				}
			}
			same := len(set) == len(n.Working)
			for _, v := range n.Working {
				same = same && set[v]
			}
			if !same {
				return fmt.Errorf("jointree: working label %v is not the union of children projections",
					n.Working)
			}
		}
		// Either way set now holds exactly the working label.
		for _, v := range n.Projected {
			if !set[v] {
				return fmt.Errorf("jointree: projected label %v ⊄ working label %v",
					n.Projected, n.Working)
			}
		}
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.Root); err != nil {
		return err
	}
	if !sameVarSet(t.Root.Projected, t.Query.Free) {
		return fmt.Errorf("jointree: root projected label %v != target schema %v",
			t.Root.Projected, t.Query.Free)
	}
	// Leaf atoms = query atoms as multisets: sorted, they pair up.
	want := make([]*cq.Atom, len(t.Query.Atoms))
	for i := range t.Query.Atoms {
		want[i] = &t.Query.Atoms[i]
	}
	slices.SortFunc(want, compareAtoms)
	slices.SortFunc(leafAtoms, compareAtoms)
	for i, a := range want {
		if i >= len(leafAtoms) || compareAtoms(a, leafAtoms[i]) != 0 {
			return fmt.Errorf("jointree: leaf atoms disagree with query at %s", a)
		}
	}
	if len(leafAtoms) > len(want) {
		return fmt.Errorf("jointree: leaf atoms disagree with query at %s", leafAtoms[len(want)])
	}
	return nil
}

// compareAtoms orders atoms by relation name, then arguments.
func compareAtoms(a, b *cq.Atom) int {
	if c := strings.Compare(a.Rel, b.Rel); c != 0 {
		return c
	}
	return slices.Compare(a.Args, b.Args)
}

func sameVarSet(a, b []cq.Var) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[cq.Var]bool, len(a))
	for _, v := range a {
		m[v] = true
	}
	for _, v := range b {
		if !m[v] {
			return false
		}
	}
	return true
}

// FromDecomposition implements Algorithm 3: it simplifies the given tree
// decomposition of q's join graph with Mark-and-Sweep (Algorithm 2),
// attaches a leaf for every atom to the node covering it, roots the tree
// at the node covering the target schema, and computes working and
// projected labels. The resulting tree has width at most dec.Width() + 1.
// A free variable that no atom binds has no tree: it is refused first, by
// name, as the caller's error.
func FromDecomposition(q *cq.Query, jg *JoinGraph, dec *treedec.Decomposition) (*Tree, error) {
	for _, v := range q.Free {
		if !slices.ContainsFunc(q.Atoms, func(a cq.Atom) bool { return a.HasVar(v) }) {
			return nil, fmt.Errorf("jointree: free variable x%d occurs in no atom", v)
		}
	}
	// Relations for the sweep: each atom's vertex set, then R_T.
	size := len(q.Free)
	for _, a := range q.Atoms {
		size += len(a.Args)
	}
	flat := make([]int, 0, size) // every relation's vertices, back to back
	rels := make([][]int, 0, len(q.Atoms)+1)
	for _, a := range q.Atoms {
		lo := len(flat)
		flat = sortedVertices(flat, jg, a.Args)
		rels = append(rels, flat[lo:len(flat):len(flat)])
	}
	rels = append(rels, sortedVertices(flat, jg, q.Free)[len(flat):])

	s, err := treedec.MarkAndSweep(dec, rels)
	if err != nil {
		return nil, err
	}
	d := s.Dec
	rootIdx := s.RelNode[len(rels)-1]

	// Build the interior skeleton.
	slab := make([]Node, d.NumNodes()+len(q.Atoms)) // interior nodes, then leaves
	nodes := make([]*Node, d.NumNodes())
	for i := range nodes {
		nodes[i] = &slab[i]
	}
	parent := make([]int, d.NumNodes())
	for i := range parent {
		parent[i] = -2
	}
	order := make([]int, 0, d.NumNodes()) // pre-order
	parent[rootIdx] = -1
	stack := append(make([]int, 0, d.NumNodes()), rootIdx)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, u)
		for _, w := range d.Adj[u] {
			if parent[w] == -2 {
				parent[w] = u
				nodes[u].Children = append(nodes[u].Children, nodes[w])
				stack = append(stack, w)
			}
		}
	}

	// Attach atom leaves to their host nodes.
	for j, a := range q.Atoms {
		leaf := &slab[d.NumNodes()+j]
		args := append([]cq.Var(nil), a.Args...) // a leaf passes up all it reads
		*leaf = Node{Atom: &q.Atoms[j], Working: args, Projected: args}
		host := nodes[s.RelNode[j]]
		host.Children = append(host.Children, leaf)
	}

	// Compute labels bottom-up over the interior nodes (reverse
	// pre-order visits children before parents).
	for k := len(order) - 1; k >= 0; k-- {
		i := order[k]
		n := nodes[i]
		size := 0
		for _, c := range n.Children {
			size += len(c.Projected)
		}
		union := make([]cq.Var, 0, size)
		for _, c := range n.Children {
			union = append(union, c.Projected...)
		}
		slices.Sort(union)
		n.Working = slices.Compact(union)
		if parent[i] == -1 {
			n.Projected = append([]cq.Var(nil), q.Free...)
			continue
		}
		// What the parent's bag still holds goes up.
		pb := d.Bags[parent[i]]
		var proj []cq.Var
		for _, v := range n.Working {
			if x, ok := jg.Index[v]; ok {
				if _, held := slices.BinarySearch(pb, x); held {
					proj = append(proj, v)
				}
			}
		}
		n.Projected = proj
	}

	t := &Tree{Root: nodes[rootIdx], Query: q}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("jointree: Algorithm 3 produced an invalid tree: %w", err)
	}
	return t, nil
}

// Structure is a query's structural analysis, the paper's Section 5
// decision made once: the join graph, its maximum-cardinality-search
// numbering seeded with the target schema, the elimination order and tree
// decomposition that numbering induces, and the join-expression tree
// Algorithm 3 builds from them. Admission, bucket elimination, the full
// reducer and the leapfrog join all read it, and nothing writes it after
// Analyze: one value serves concurrent requests.
type Structure struct {
	Query *cq.Query
	Graph *JoinGraph
	// Order is the MCS numbering as variables, the free ones first in
	// Query.Free order: bucket elimination's variable order, and the
	// leapfrog join's before its smallest-domain-first reorder.
	Order []cq.Var
	Width int // the induced width of Order's reverse, the width of Dec
	Dec   *treedec.Decomposition
	Tree  *Tree // Dec's join-expression tree, which the full reducer sweeps
}

// Analyze computes q's structure. MCS breaks ties by vertex number, so
// it is deterministic: two analyses of one query agree.
func Analyze(q *cq.Query) (*Structure, error) {
	if len(q.Atoms) == 0 {
		return nil, fmt.Errorf("jointree: query has no atoms")
	}
	jg := BuildJoinGraph(q)
	elim := jg.MCSElimination(q.Free, nil)
	s := &Structure{Query: q, Graph: jg, Order: jg.VarSet(elim)}
	slices.Reverse(s.Order)
	s.Dec = treedec.FromOrder(jg.G, elim)
	s.Width = max(s.Dec.Width(), 0)
	var err error
	if s.Tree, err = FromDecomposition(q, jg, s.Dec); err != nil {
		return nil, err
	}
	return s, nil
}

// ToDecomposition implements Algorithm 1 / Lemma 1: drop the projected
// labels and use the working labels as bags, yielding a tree decomposition
// of the join graph with width = tree width − 1.
func ToDecomposition(t *Tree, jg *JoinGraph) *treedec.Decomposition {
	var bags [][]int
	var adj [][]int
	var build func(n *Node) int
	build = func(n *Node) int {
		idx := len(bags)
		bags = append(bags, sortedVertices(nil, jg, n.Working))
		adj = append(adj, nil)
		for _, c := range n.Children {
			ci := build(c)
			adj[idx] = append(adj[idx], ci)
			adj[ci] = append(adj[ci], idx)
		}
		return idx
	}
	build(t.Root)
	return &treedec.Decomposition{Bags: bags, Adj: adj}
}

// ToPlan lowers the join-expression tree to an executable plan: each
// interior node joins its children's plans left-deep and projects to its
// projected label; leaves scan their atoms. Projections that keep every
// column are skipped.
func (t *Tree) ToPlan() plan.Node {
	var lower func(n *Node) plan.Node
	lower = func(n *Node) plan.Node {
		if n.Atom != nil {
			return &plan.Scan{Atom: *n.Atom}
		}
		children := make([]plan.Node, len(n.Children))
		for i, c := range n.Children {
			children[i] = lower(c)
		}
		joined := plan.LeftDeepJoin(children)
		if len(n.Projected) == len(joined.Attrs()) {
			return joined
		}
		return &plan.Project{Child: joined, Cols: n.Projected}
	}
	root := lower(t.Root)
	// Guarantee the root schema is exactly the target schema even when
	// the final projection was a no-op by column count but differs in
	// set (it cannot, by Validate) — and when the query is a single
	// atom whose schema already matches, keep the plan minimal.
	if !sameVarSet(root.Attrs(), t.Query.Free) {
		root = &plan.Project{Child: root, Cols: t.Query.Free}
	}
	return root
}

// sortedVertices appends the join-graph vertices of vars to dst, in
// ascending order.
func sortedVertices(dst []int, jg *JoinGraph, vars []cq.Var) []int {
	lo := len(dst)
	for _, v := range vars {
		if i, ok := jg.Index[v]; ok {
			dst = append(dst, i)
		}
	}
	sort.Ints(dst[lo:])
	return dst
}
