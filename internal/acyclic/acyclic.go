// Package acyclic implements the structural test for the acyclic
// project-join queries the paper positions its work against (Sections 1
// and 7): the GYO ear-removal acyclicity test of Tarjan & Yannakakis and
// the join forest it leaves behind. Evaluation — the full semijoin
// reducer and Yannakakis's algorithm with linear-size intermediate
// results — is the engine's (engine.NewYannakakis), governed and
// instrumented like every other executor.
//
// The paper notes that for its 3-COLOR queries semijoins are useless —
// projecting a column of the edge relation yields all colors, so
// semijoin reduction never shrinks anything. That claim is tested here
// against the engine's reducer (TestSemijoinsUselessFor3Color) and is the
// reason the paper focuses purely on join/projection ordering.
package acyclic

import "projpush/internal/cq"

// JoinForest is the result of a successful GYO reduction: a forest over
// atom indices. Parent[i] is the atom that absorbed atom i, or -1 for
// roots. Order lists the atoms leaves-first (the removal order), which is
// the order semijoin passes follow.
type JoinForest struct {
	Parent []int
	Order  []int
}

// Roots returns the root atom indices.
func (f *JoinForest) Roots() []int {
	var out []int
	for i, p := range f.Parent {
		if p == -1 {
			out = append(out, i)
		}
	}
	return out
}

// GYO runs the Graham / Yu–Ozsoyoglu ear-removal algorithm on the query's
// hypergraph (one hyperedge per atom). It returns a join forest when the
// query is acyclic, and ok=false otherwise.
func GYO(q *cq.Query) (*JoinForest, bool) {
	m := len(q.Atoms)
	edges := make([]map[cq.Var]bool, m)
	alive := make([]bool, m)
	occ := make(map[cq.Var]int)
	for i, a := range q.Atoms {
		edges[i] = make(map[cq.Var]bool, len(a.Args))
		alive[i] = true
		for _, v := range a.Args {
			edges[i][v] = true
			occ[v]++
		}
	}
	f := &JoinForest{Parent: make([]int, m)}
	for i := range f.Parent {
		f.Parent[i] = -1
	}
	aliveCount := m

	for {
		changed := false
		// Rule 1: drop variables occurring in exactly one hyperedge.
		for i := 0; i < m; i++ {
			if !alive[i] {
				continue
			}
			for v := range edges[i] {
				if occ[v] == 1 {
					delete(edges[i], v)
					occ[v] = 0
					changed = true
				}
			}
		}
		// Rule 2: remove a hyperedge contained in another (an ear).
		for i := 0; i < m && aliveCount > 1; i++ {
			if !alive[i] {
				continue
			}
			for j := 0; j < m; j++ {
				if i == j || !alive[j] {
					continue
				}
				if subset(edges[i], edges[j]) {
					alive[i] = false
					aliveCount--
					f.Parent[i] = j
					f.Order = append(f.Order, i)
					for v := range edges[i] {
						occ[v]--
					}
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
	}
	if aliveCount != 1 {
		// Either cyclic, or several disconnected components each fully
		// reduced to one edge: the latter is still acyclic (a forest).
		for i := 0; i < m; i++ {
			if alive[i] && len(edges[i]) > 0 {
				// A remaining hyperedge with variables shared with
				// another remaining hyperedge means a cycle.
				for j := 0; j < m; j++ {
					if j == i || !alive[j] {
						continue
					}
					for v := range edges[i] {
						if edges[j][v] {
							return nil, false
						}
					}
				}
			}
		}
	}
	// Remaining alive atoms are roots, appended last in removal order.
	for i := 0; i < m; i++ {
		if alive[i] {
			f.Order = append(f.Order, i)
		}
	}
	return f, true
}

// subset reports a ⊆ b.
func subset(a, b map[cq.Var]bool) bool {
	if len(a) > len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

// IsAcyclic reports whether the query's hypergraph is acyclic. When every
// atom has arity ≤ 2 the hypergraph is a graph, acyclic exactly when its
// distinct variable pairs close no cycle, which one union-find pass over
// them decides without GYO's quadratic ear search; a wider atom takes GYO.
func IsAcyclic(q *cq.Query) bool {
	pairs := make(map[[2]cq.Var]bool, len(q.Atoms))
	for _, a := range q.Atoms {
		switch {
		case len(a.Args) > 2:
			_, ok := GYO(q)
			return ok
		case len(a.Args) == 2 && a.Args[0] != a.Args[1]:
			pairs[[2]cq.Var{min(a.Args[0], a.Args[1]), max(a.Args[0], a.Args[1])}] = true
		}
	}
	parent := make(map[cq.Var]cq.Var) // a root has no entry
	find := func(x cq.Var) cq.Var {
		for {
			p, ok := parent[x]
			if !ok {
				return x
			}
			if g, ok := parent[p]; ok {
				parent[x] = g // path halving
			}
			x = p
		}
	}
	for p := range pairs {
		x, y := find(p[0]), find(p[1])
		if x == y {
			return false
		}
		parent[x] = y
	}
	return true
}
