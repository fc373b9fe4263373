package treedec

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"projpush/internal/graph"
)

// markAndSweepReference is Algorithm 2 as first written, kept as the
// oracle for MarkAndSweep: it re-walks the whole decomposition once per
// marked vertex, rooted at one of the vertex's own marked nodes, and keeps
// the vertex wherever the subtree below holds a marked node.
func markAndSweepReference(d *Decomposition, rels [][]int) (*Simplified, error) {
	n := d.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("treedec: empty decomposition")
	}

	// Step 1: host node per relation; record marks per vertex.
	host := make([]int, len(rels))
	markNodes := make(map[int][]int) // vertex -> nodes where it is marked
	for j, rel := range rels {
		found := -1
		for i, bag := range d.Bags {
			if containsAll(bag, rel) {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("treedec: no bag covers relation %d (%v)", j, rel)
		}
		host[j] = found
		for _, v := range rel {
			markNodes[v] = append(markNodes[v], found)
		}
	}

	// Step 2: for every marked vertex, keep it on the minimal subtree
	// spanning its marked nodes (root the walk at one marked node; a node
	// survives iff its subtree contains a marked node).
	keep := make([]map[int]bool, n)
	for i := range keep {
		keep[i] = make(map[int]bool)
	}
	parent := make([]int, n)
	order := make([]int, 0, n)
	for v, nodes := range markNodes {
		root := nodes[0]
		inS := make(map[int]int, len(nodes))
		for _, x := range nodes {
			inS[x]++
		}
		// Iterative DFS computing subtree counts of marked nodes.
		for i := range parent {
			parent[i] = -2
		}
		order = order[:0]
		parent[root] = -1
		stack := []int{root}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			order = append(order, u)
			for _, w := range d.Adj[u] {
				if parent[w] == -2 {
					parent[w] = u
					stack = append(stack, w)
				}
			}
		}
		count := make([]int, n)
		for i := len(order) - 1; i >= 0; i-- {
			u := order[i]
			count[u] += inS[u]
			if p := parent[u]; p >= 0 {
				count[p] += count[u]
			}
		}
		for _, u := range order {
			if count[u] >= 1 {
				keep[u][v] = true
			}
		}
	}

	// Build the swept bags.
	bags := make([][]int, n)
	for i := range bags {
		for v := range keep[i] {
			bags[i] = append(bags[i], v)
		}
		sort.Ints(bags[i])
	}

	// Step 3: delete empty nodes. Leaves are removed; interior empty
	// nodes are bypassed by chaining their neighbors (safe: a vertex
	// crossing an empty node would violate the running-intersection
	// property, so none does).
	adj := make([]map[int]bool, n)
	for i, nb := range d.Adj {
		adj[i] = make(map[int]bool, len(nb))
		for _, j := range nb {
			adj[i][j] = true
		}
	}
	alive := make([]bool, n)
	aliveCount := 0
	for i := range alive {
		alive[i] = true
		aliveCount++
	}
	// Never delete the last node even if empty (a degenerate query could
	// have an all-empty decomposition; keep one node to stay a tree).
	for i := 0; i < n && aliveCount > 1; i++ {
		if !alive[i] || len(bags[i]) > 0 {
			continue
		}
		var nbrs []int
		for j := range adj[i] {
			nbrs = append(nbrs, j)
		}
		sort.Ints(nbrs)
		for _, j := range nbrs {
			delete(adj[j], i)
		}
		adj[i] = nil
		for k := 1; k < len(nbrs); k++ {
			adj[nbrs[k-1]][nbrs[k]] = true
			adj[nbrs[k]][nbrs[k-1]] = true
		}
		alive[i] = false
		aliveCount--
	}

	// Compact indices.
	remap := make([]int, n)
	var newBags [][]int
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
		var nb []int
		for j := range adj[i] {
			nb = append(nb, remap[j])
		}
		sort.Ints(nb)
		newAdj[remap[i]] = nb
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

// sweepCase is one decomposition and relation list fed to both
// implementations: the graph's edges as relations, then a target schema.
func sweepCase(g *graph.Graph, elim []int, target []int) (*Decomposition, [][]int) {
	var rels [][]int
	for _, e := range g.Edges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		rels = append(rels, []int{u, v})
	}
	return FromOrder(g, elim), append(rels, target)
}

// TestMarkAndSweepMatchesReference pins the rooted-once sweep to the
// per-vertex reference — bags, adjacency and relation hosts — on the four
// paper families at the end-to-end benchmark's orders and on seeded random
// graphs under MCS and arbitrary elimination orders, with Boolean,
// single-vertex and multi-vertex (clique) target schemas.
func TestMarkAndSweepMatchesReference(t *testing.T) {
	check := func(name string, d *Decomposition, rels [][]int) {
		t.Helper()
		want, werr := markAndSweepReference(d, rels)
		got, gerr := MarkAndSweep(d, rels)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: reference error %v, got %v", name, werr, gerr)
		}
		if werr != nil {
			return
		}
		if !reflect.DeepEqual(got.RelNode, want.RelNode) {
			t.Fatalf("%s: RelNode = %v, reference %v", name, got.RelNode, want.RelNode)
		}
		if len(got.Dec.Bags) != len(want.Dec.Bags) {
			t.Fatalf("%s: %d nodes, reference %d", name, len(got.Dec.Bags), len(want.Dec.Bags))
		}
		for i := range want.Dec.Bags {
			// Equal as sets: an emptied bag is nil in one and empty in the other.
			if fmt.Sprint(got.Dec.Bags[i]) != fmt.Sprint(want.Dec.Bags[i]) || fmt.Sprint(got.Dec.Adj[i]) != fmt.Sprint(want.Dec.Adj[i]) {
				t.Fatalf("%s: node %d = bag %v adj %v, reference bag %v adj %v", name, i,
					got.Dec.Bags[i], got.Dec.Adj[i], want.Dec.Bags[i], want.Dec.Adj[i])
			}
		}
	}
	for _, f := range []struct {
		name string
		gen  func(int) *graph.Graph
	}{
		{"augpath", graph.AugmentedPath}, {"ladder", graph.Ladder},
		{"augladder", graph.AugmentedLadder}, {"augcircladder", graph.AugmentedCircularLadder},
	} {
		for _, order := range []int{5, 10, 20, 40} {
			g := f.gen(order)
			first := g.Edges[0][0]
			for _, target := range [][]int{nil, {first}} {
				d, rels := sweepCase(g, EliminationOrder(MCS(g, target, nil)), target)
				check(fmt.Sprintf("%s-%d/free=%v", f.name, order, target), d, rels)
			}
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(14)
		m := 1 + rng.Intn(3*n)
		if most := n * (n - 1) / 2; m > most {
			m = most
		}
		g, err := graph.Random(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		// A target the decomposition covers: a vertex and some of its
		// neighbours that come after it in the order form a clique of the
		// filled graph only under MCS seeded with them, so seed MCS with it.
		e := g.Edges[rng.Intn(len(g.Edges))]
		target := []int{e[0], e[1]}
		sort.Ints(target)
		d, rels := sweepCase(g, EliminationOrder(MCS(g, target, rng)), target)
		check(fmt.Sprintf("random seed %d mcs", seed), d, rels)
		// An arbitrary order leaves more empty and isolated-vertex nodes
		// for step 3 to bypass; its target is one vertex, always covered.
		d, rels = sweepCase(g, rng.Perm(n), target[:1])
		check(fmt.Sprintf("random seed %d perm", seed), d, rels)
	}
}
