// Package treedec implements tree decompositions of graphs and the
// machinery the paper builds on them: elimination orders (maximum
// cardinality search, min-fill, min-degree), the decomposition induced by
// an elimination order, induced width, exact treewidth for small graphs,
// and the Mark-and-Sweep simplification of Algorithm 2.
//
// Treewidth characterizes the join width of a project-join query
// (Theorem 1: join width = treewidth of the join graph + 1) and the
// induced width of bucket elimination (Theorem 2: induced width =
// treewidth). Finding treewidth is NP-hard, so the optimization methods
// use the MCS heuristic; the exact solver here exists to verify the
// theorems and to measure heuristic quality in tests and benchmarks.
package treedec

import (
	"fmt"
	"sort"

	"projpush/internal/graph"
)

// Decomposition is a tree decomposition: a tree whose node i carries the
// bag Bags[i] (a sorted set of graph vertices). The tree is undirected;
// Adj[i] lists the tree neighbors of node i.
type Decomposition struct {
	Bags [][]int
	Adj  [][]int
}

// NumNodes returns the number of tree nodes.
func (d *Decomposition) NumNodes() int { return len(d.Bags) }

// Width returns max |bag| − 1, the width of the decomposition.
func (d *Decomposition) Width() int {
	w := 0
	for _, b := range d.Bags {
		if len(b) > w {
			w = len(b)
		}
	}
	return w - 1
}

// bagHas reports membership in a sorted bag.
func bagHas(bag []int, v int) bool {
	i := sort.SearchInts(bag, v)
	return i < len(bag) && bag[i] == v
}

// Validate checks the three tree-decomposition properties against g:
// (1) every vertex appears in some bag, (2) every edge is covered by some
// bag, and (3) for each vertex the set of bags containing it forms a
// connected subtree. It also checks the node graph really is a tree.
func (d *Decomposition) Validate(g *graph.Graph) error {
	n := len(d.Bags)
	if n == 0 {
		if g.N == 0 {
			return nil
		}
		return fmt.Errorf("treedec: empty decomposition for nonempty graph")
	}
	// The skeleton must be a tree: connected with n-1 edges.
	edgeCount := 0
	for i, nb := range d.Adj {
		for _, j := range nb {
			if j < 0 || j >= n {
				return fmt.Errorf("treedec: node %d has out-of-range neighbor %d", i, j)
			}
			if j == i {
				return fmt.Errorf("treedec: node %d has a self-loop", i)
			}
			edgeCount++
		}
	}
	if edgeCount%2 != 0 {
		return fmt.Errorf("treedec: adjacency is not symmetric")
	}
	edgeCount /= 2
	if edgeCount != n-1 {
		return fmt.Errorf("treedec: %d tree edges for %d nodes, want %d", edgeCount, n, n-1)
	}
	visited := make([]bool, n)
	stack := []int{0}
	visited[0] = true
	seen := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range d.Adj[u] {
			if !visited[v] {
				visited[v] = true
				seen++
				stack = append(stack, v)
			}
		}
	}
	if seen != n {
		return fmt.Errorf("treedec: tree skeleton is disconnected")
	}

	// Bags are sorted vertex sets.
	for i, b := range d.Bags {
		for k := 1; k < len(b); k++ {
			if b[k-1] >= b[k] {
				return fmt.Errorf("treedec: bag %d is not a sorted set: %v", i, b)
			}
		}
		for _, v := range b {
			if v < 0 || v >= g.N {
				return fmt.Errorf("treedec: bag %d contains out-of-range vertex %d", i, v)
			}
		}
	}

	// (1) vertex coverage.
	covered := make([]bool, g.N)
	for _, b := range d.Bags {
		for _, v := range b {
			covered[v] = true
		}
	}
	for v := 0; v < g.N; v++ {
		if !covered[v] {
			return fmt.Errorf("treedec: vertex %d in no bag", v)
		}
	}

	// (2) edge coverage.
	for _, e := range g.Edges {
		ok := false
		for _, b := range d.Bags {
			if bagHas(b, e[0]) && bagHas(b, e[1]) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("treedec: edge (%d,%d) covered by no bag", e[0], e[1])
		}
	}

	// (3) connectedness of each vertex's occurrence set.
	for v := 0; v < g.N; v++ {
		var nodes []int
		for i, b := range d.Bags {
			if bagHas(b, v) {
				nodes = append(nodes, i)
			}
		}
		if len(nodes) <= 1 {
			continue
		}
		inSet := make(map[int]bool, len(nodes))
		for _, i := range nodes {
			inSet[i] = true
		}
		stack := []int{nodes[0]}
		reached := map[int]bool{nodes[0]: true}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range d.Adj[u] {
				if inSet[w] && !reached[w] {
					reached[w] = true
					stack = append(stack, w)
				}
			}
		}
		if len(reached) != len(nodes) {
			return fmt.Errorf("treedec: occurrences of vertex %d are disconnected", v)
		}
	}
	return nil
}

// sortedSet sorts and deduplicates a vertex list in place, returning it.
func sortedSet(vs []int) []int {
	sort.Ints(vs)
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || v != vs[i-1] {
			out = append(out, v)
		}
	}
	return out
}
