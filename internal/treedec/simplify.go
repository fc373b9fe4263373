package treedec

import (
	"fmt"
	"slices"
)

// Simplified is the output of MarkAndSweep: a pruned decomposition plus,
// for every input relation, the node whose bag covers it.
type Simplified struct {
	Dec *Decomposition
	// RelNode[j] is the node of Dec assigned to relation j.
	RelNode []int
}

// MarkAndSweep implements Algorithm 2 of the paper: given a tree
// decomposition (of a query's join graph) and the query's relations — each
// given as the set of join-graph vertices of its attributes, with the
// target schema passed as one more "relation" R_T — it simplifies the
// decomposition to contain only what the join-expression tree needs,
// without increasing width.
//
// Each relation is assigned a host node whose bag contains it (one exists
// in any valid decomposition because a relation's attributes form a clique
// of the join graph). A vertex then survives in exactly the minimal
// subtree spanning the host nodes where it was marked — the union of the
// pairwise path markings in the paper's formulation — and empty nodes are
// deleted, bypassing interior ones. The result satisfies Lemma 2: same
// width or less, every leaf hosts a relation, and all decomposition
// properties are preserved.
func MarkAndSweep(d *Decomposition, rels [][]int) (*Simplified, error) {
	n := d.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("treedec: empty decomposition")
	}

	// Step 1: host node per relation — the first node whose bag covers it,
	// searched among the nodes holding its first vertex — and, per vertex,
	// the nodes where it is marked.
	nv := 0
	for _, bag := range d.Bags {
		if k := len(bag); k > 0 && bag[k-1] >= nv {
			nv = bag[k-1] + 1
		}
	}
	holders := make([][]int, nv) // vertex -> nodes whose bag has it, ascending
	for i, bag := range d.Bags {
		for _, v := range bag {
			holders[v] = append(holders[v], i)
		}
	}
	host := make([]int, len(rels))
	marks := make([][]int, nv)
	for j, rel := range rels {
		found := -1
		if len(rel) == 0 {
			found = 0
		} else if v := rel[0]; v >= 0 && v < nv {
			for _, i := range holders[v] {
				if containsAll(d.Bags[i], rel) {
					found = i
					break
				}
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("treedec: no bag covers relation %d (%v)", j, rel)
		}
		host[j] = found
		for _, v := range rel {
			marks[v] = append(marks[v], found)
		}
	}

	// Step 2: root the tree once; a marked vertex then survives on the
	// minimal subtree spanning its marked nodes, which is the path from
	// each of them up to their common ancestor. Vertices are swept in
	// ascending order, so every bag comes out sorted.
	parent := make([]int, n)
	depth := make([]int, n)
	for i := range parent {
		parent[i] = -2
	}
	parent[0] = -1
	reached := 0
	for stack := make([]int, 1, n); len(stack) > 0; reached++ { // starts at node 0
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range d.Adj[u] {
			if parent[w] == -2 {
				parent[w], depth[w] = u, depth[u]+1
				stack = append(stack, w)
			}
		}
	}
	if reached != n {
		return nil, fmt.Errorf("treedec: decomposition skeleton is disconnected")
	}
	// A valid decomposition's bag already holds whatever survives in it, so
	// the swept bags are cut from one array of that size.
	size := 0
	for _, bag := range d.Bags {
		size += len(bag)
	}
	flat := make([]int, size)
	bags := make([][]int, n)
	for i, bag := range d.Bags {
		bags[i], flat = flat[:0:len(bag)], flat[len(bag):]
	}
	swept := make([]int, n) // swept[u] = the last vertex kept at u, plus one
	for v, nodes := range marks {
		if len(nodes) == 0 {
			continue
		}
		top := nodes[0]
		for _, x := range nodes[1:] {
			for y := x; top != y; {
				if depth[top] >= depth[y] {
					top = parent[top]
				} else {
					y = parent[y]
				}
			}
		}
		for _, u := range nodes {
			for ; swept[u] != v+1; u = parent[u] {
				swept[u] = v + 1
				bags[u] = append(bags[u], v)
				if u == top {
					break
				}
			}
		}
	}

	// Step 3: delete empty nodes. Leaves are removed; interior empty
	// nodes are bypassed by chaining their neighbors (safe: a vertex
	// crossing an empty node would violate the running-intersection
	// property, so none does).
	adj := make([][]int, n)
	for i, nb := range d.Adj {
		adj[i] = sortedSet(append([]int(nil), nb...))
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	// Never delete the last node even if empty (a degenerate query could
	// have an all-empty decomposition; keep one node to stay a tree).
	aliveCount := n
	for i := 0; i < n && aliveCount > 1; i++ {
		if len(bags[i]) > 0 {
			continue
		}
		nbrs := adj[i]
		for _, j := range nbrs {
			adj[j] = setRemove(adj[j], i)
		}
		adj[i] = nil
		for k := 1; k < len(nbrs); k++ {
			adj[nbrs[k-1]] = setInsert(adj[nbrs[k-1]], nbrs[k])
			adj[nbrs[k]] = setInsert(adj[nbrs[k]], nbrs[k-1])
		}
		alive[i] = false
		aliveCount--
	}

	// Compact indices; the renumbering is monotone, so neighbor lists stay
	// sorted.
	remap := make([]int, n)
	newBags := make([][]int, 0, aliveCount)
	for i := 0; i < n; i++ {
		if alive[i] {
			remap[i] = len(newBags)
			newBags = append(newBags, bags[i])
		} else {
			remap[i] = -1
		}
	}
	newAdj := make([][]int, len(newBags))
	for i := 0; i < n; i++ {
		if !alive[i] {
			continue
		}
		for k, j := range adj[i] {
			adj[i][k] = remap[j]
		}
		newAdj[remap[i]] = adj[i]
	}

	out := &Simplified{
		Dec:     &Decomposition{Bags: newBags, Adj: newAdj},
		RelNode: make([]int, len(rels)),
	}
	for j, h := range host {
		if remap[h] < 0 {
			// The host bag was swept empty — possible only when the
			// relation itself is empty (no attributes); reassign to
			// node 0.
			out.RelNode[j] = 0
			continue
		}
		out.RelNode[j] = remap[h]
	}
	return out, nil
}

// setRemove deletes x from the sorted set s in place.
func setRemove(s []int, x int) []int {
	if i, ok := slices.BinarySearch(s, x); ok {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// setInsert adds x to the sorted set s.
func setInsert(s []int, x int) []int {
	if i, ok := slices.BinarySearch(s, x); !ok {
		return slices.Insert(s, i, x)
	}
	return s
}

// containsAll reports whether the sorted bag contains every vertex of rel.
func containsAll(bag, rel []int) bool {
	for _, v := range rel {
		if !bagHas(bag, v) {
			return false
		}
	}
	return true
}
