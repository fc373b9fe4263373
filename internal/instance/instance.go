// Package instance translates combinatorial problem instances into
// project-join queries over tiny databases, following the paper's
// experimental setup (Section 2): a graph instance of k-COLOR becomes the
// query π_{v1} ⋈_{(vi,vj)∈E} edge(vi,vj) over a single binary relation
// holding all pairs of distinct colors, and — as in the concluding remarks
// — 3-SAT and 2-SAT instances become queries over ternary/binary
// clause-pattern relations.
//
// For non-Boolean experiments the paper keeps a random 20% of the vertices
// free ("before we convert the formula we pick 20% of the vertices randomly
// to be free"); ChooseFree implements that rule.
package instance

import (
	"fmt"
	"math/rand"
	"sort"

	"projpush/internal/cq"
	"projpush/internal/graph"
	"projpush/internal/relation"
)

// ColorDatabase returns the k-COLOR database: a single relation "edge"
// with columns (0,1) containing all k(k-1) ordered pairs of distinct
// colors 0..k-1.
func ColorDatabase(k int) cq.Database {
	if k < 1 {
		panic("instance.ColorDatabase: need k >= 1")
	}
	e := relation.New([]relation.Attr{0, 1})
	for i := relation.Value(0); i < relation.Value(k); i++ {
		for j := relation.Value(0); j < relation.Value(k); j++ {
			if i != j {
				e.Add(relation.Tuple{i, j})
			}
		}
	}
	return cq.Database{"edge": e}
}

// ColorQuery translates a graph into the k-COLOR conjunctive query: one
// edge atom per graph edge, with variables numbered by graph vertices. The
// free-variable list is supplied by the caller (see BooleanFree and
// ChooseFree); every free variable must touch an edge. The query is
// nonempty over ColorDatabase(k) iff the graph is k-colorable.
func ColorQuery(g *graph.Graph, free []cq.Var) (*cq.Query, error) {
	if g.M() == 0 {
		return nil, fmt.Errorf("instance.ColorQuery: graph has no edges")
	}
	q := &cq.Query{Free: append([]cq.Var(nil), free...)}
	for _, e := range g.Edges {
		q.Atoms = append(q.Atoms, cq.Atom{Rel: "edge", Args: []cq.Var{e[0], e[1]}})
	}
	touched := make(map[cq.Var]bool)
	for _, e := range g.Edges {
		touched[e[0]] = true
		touched[e[1]] = true
	}
	for _, v := range q.Free {
		if !touched[v] {
			return nil, fmt.Errorf("instance.ColorQuery: free vertex %d touches no edge", v)
		}
	}
	return q, nil
}

// BooleanFree returns the paper's emulation of a Boolean query: a single
// free variable, the first vertex occurring in an edge.
func BooleanFree(g *graph.Graph) []cq.Var {
	if g.M() == 0 {
		return nil
	}
	return []cq.Var{g.Edges[0][0]}
}

// ChooseFree picks ⌈frac·|candidates|⌉ distinct variables uniformly at
// random from candidates — the paper's 20% rule with frac = 0.2. The
// result is sorted for determinism given a seeded rng.
func ChooseFree(candidates []cq.Var, frac float64, rng *rand.Rand) []cq.Var {
	if frac <= 0 || len(candidates) == 0 {
		return nil
	}
	n := int(frac*float64(len(candidates)) + 0.999999)
	if n > len(candidates) {
		n = len(candidates)
	}
	perm := rng.Perm(len(candidates))
	out := make([]cq.Var, n)
	for i := 0; i < n; i++ {
		out[i] = candidates[perm[i]]
	}
	sort.Ints(out)
	return out
}

// EdgeVertices returns the vertices of g that touch at least one edge,
// ascending — the candidate pool for ChooseFree.
func EdgeVertices(g *graph.Graph) []cq.Var {
	touched := make(map[int]bool)
	for _, e := range g.Edges {
		touched[e[0]] = true
		touched[e[1]] = true
	}
	out := make([]cq.Var, 0, len(touched))
	for v := range touched {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Lit is a SAT literal: a variable index with a sign (true = positive).
type Lit struct {
	Var int
	Pos bool
}

// Clause is a disjunction of literals over distinct variables.
type Clause []Lit

// SAT is a CNF formula over variables 0..NumVars-1.
type SAT struct {
	NumVars int
	Clauses []Clause
}

// Density returns clauses-per-variable, the standard SAT density.
func (s *SAT) Density() float64 {
	if s.NumVars == 0 {
		return 0
	}
	return float64(len(s.Clauses)) / float64(s.NumVars)
}

// RandomSAT generates a random k-SAT formula with n variables and m
// clauses: each clause picks k distinct variables uniformly and signs them
// by fair coins (the fixed-clause-length model).
func RandomSAT(k, n, m int, rng *rand.Rand) (*SAT, error) {
	if k < 1 || k > n {
		return nil, fmt.Errorf("instance.RandomSAT: need 1 <= k <= n, got k=%d n=%d", k, n)
	}
	s := &SAT{NumVars: n}
	for c := 0; c < m; c++ {
		perm := rng.Perm(n)
		cl := make(Clause, k)
		for i := 0; i < k; i++ {
			cl[i] = Lit{Var: perm[i], Pos: rng.Intn(2) == 0}
		}
		s.Clauses = append(s.Clauses, cl)
	}
	return s, nil
}

// satPatternName names the relation for a clause sign pattern, e.g.
// "c3_101" for a 3-clause with signs (+,−,+). The relation contains every
// Boolean tuple except the single falsifying assignment.
func satPatternName(signs []bool) string {
	name := fmt.Sprintf("c%d_", len(signs))
	for _, s := range signs {
		if s {
			name += "1"
		} else {
			name += "0"
		}
	}
	return name
}

// SATDatabase returns the database of clause-pattern relations for
// k-literal clauses: 2^k relations of arity k, each with 2^k − 1 tuples
// (all assignments except the falsifying one). Like the 3-COLOR database
// it is tiny and independent of the instance.
func SATDatabase(k int) cq.Database {
	db := make(cq.Database)
	attrs := make([]relation.Attr, k)
	for i := range attrs {
		attrs[i] = i
	}
	for pat := 0; pat < 1<<k; pat++ {
		signs := make([]bool, k)
		for i := range signs {
			signs[i] = pat&(1<<i) != 0
		}
		rel := relation.New(attrs)
		for asg := 0; asg < 1<<k; asg++ {
			falsifies := true
			t := make(relation.Tuple, k)
			for i := range signs {
				bit := asg&(1<<i) != 0
				if bit {
					t[i] = 1
				}
				// A positive literal is falsified by 0, a negative
				// literal by 1.
				if bit == signs[i] {
					falsifies = false
				}
			}
			if !falsifies {
				rel.Add(t)
			}
		}
		db[satPatternName(signs)] = rel
	}
	return db
}

// SATQuery translates a CNF formula into a conjunctive query: one atom
// per clause, naming the relation of the clause's sign pattern with the
// clause's variables as arguments. The query is nonempty iff the formula
// is satisfiable. free lists the free variables (nil plus Boolean
// emulation is the caller's choice). Clause widths may be mixed — DIMACS
// benchmark formulas often are — and the returned database contains the
// pattern relations for every width that occurs.
func SATQuery(s *SAT, free []cq.Var) (*cq.Query, cq.Database, error) {
	if len(s.Clauses) == 0 {
		return nil, nil, fmt.Errorf("instance.SATQuery: formula has no clauses")
	}
	q := &cq.Query{Free: append([]cq.Var(nil), free...)}
	widths := make(map[int]bool)
	for i, cl := range s.Clauses {
		k := len(cl)
		if k == 0 {
			return nil, nil, fmt.Errorf("instance.SATQuery: clause %d is empty", i)
		}
		widths[k] = true
		signs := make([]bool, k)
		args := make([]cq.Var, k)
		seen := make(map[int]bool, k)
		for j, lit := range cl {
			if seen[lit.Var] {
				return nil, nil, fmt.Errorf("instance.SATQuery: clause %d repeats variable %d", i, lit.Var)
			}
			seen[lit.Var] = true
			signs[j] = lit.Pos
			args[j] = lit.Var
		}
		q.Atoms = append(q.Atoms, cq.Atom{Rel: satPatternName(signs), Args: args})
	}
	db := make(cq.Database)
	for k := range widths {
		for name, rel := range SATDatabase(k) {
			db[name] = rel
		}
	}
	return q, db, nil
}

// SATVariablesInClauses returns the variables that occur in some clause,
// ascending — the candidate pool for ChooseFree on SAT instances.
func SATVariablesInClauses(s *SAT) []cq.Var {
	seen := make(map[int]bool)
	for _, cl := range s.Clauses {
		for _, lit := range cl {
			seen[lit.Var] = true
		}
	}
	out := make([]cq.Var, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
