package jointree

import "projpush/internal/cq"

// IsAcyclic reports whether the query's hypergraph (one hyperedge per
// atom) is acyclic, the class the paper positions its work against
// (Sections 1 and 7) and the full reducer answers output-optimally. When
// every atom has arity ≤ 2 the hypergraph is a graph, acyclic exactly
// when its distinct variable pairs close no cycle, which one union-find
// pass over them decides without GYO's quadratic ear search; a wider atom
// takes GYO.
func IsAcyclic(q *cq.Query) bool {
	pairs := make(map[[2]cq.Var]bool, len(q.Atoms))
	for _, a := range q.Atoms {
		switch {
		case len(a.Args) > 2:
			return gyo(q)
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

// gyo runs the Graham / Yu–Ozsoyoglu ear-removal algorithm of Tarjan &
// Yannakakis on the query's hypergraph and reports whether it reduces,
// that is, whether the hypergraph is acyclic.
func gyo(q *cq.Query) bool {
	m := len(q.Atoms)
	edges := make([]map[cq.Var]bool, m)
	alive := make([]bool, m)
	occ := make(map[cq.Var]int)
	for i, a := range q.Atoms {
		edges[i] = make(map[cq.Var]bool, len(a.Args))
		alive[i] = true
		for _, v := range a.Args {
			if !edges[i][v] { // a variable counts once per hyperedge
				edges[i][v] = true
				occ[v]++
			}
		}
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
	if aliveCount == 1 {
		return true
	}
	// Either cyclic, or several disconnected components each fully
	// reduced to one edge: the latter is still acyclic (a forest). A
	// remaining hyperedge sharing a variable with another remaining
	// hyperedge means a cycle.
	for i := 0; i < m; i++ {
		if !alive[i] {
			continue
		}
		for j := 0; j < m; j++ {
			if j == i || !alive[j] {
				continue
			}
			for v := range edges[i] {
				if edges[j][v] {
					return false
				}
			}
		}
	}
	return true
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
