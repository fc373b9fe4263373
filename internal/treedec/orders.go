package treedec

import (
	"math/bits"
	"math/rand"

	"projpush/internal/graph"
)

// MCS computes a maximum-cardinality-search numbering of g (Tarjan &
// Yannakakis): it returns the vertices in numbering order x1..xn, starting
// from the given initial vertices (the paper seeds it with the target
// schema) and then repeatedly picking the vertex with the most already-
// numbered neighbors. Ties are broken randomly when rng is non-nil, by
// lowest vertex id otherwise (for reproducibility).
//
// The unnumbered vertices live in a bucket queue keyed by weight (one
// bitset per weight level), so each pick pops the top bucket instead of
// scanning all n vertices — O(n+m) bucket updates overall, against the
// O(n^2) full scans the queue replaces. Each bucket enumerates its
// vertices in ascending id order, exactly the tie set the scanning
// implementation built, so seeded random tie-breaking draws the same
// vertices from the same rng stream.
//
// For bucket elimination the buckets are processed from xn down to x1, so
// the elimination order is the reverse of this numbering; see
// EliminationOrder.
func MCS(g *graph.Graph, initial []int, rng *rand.Rand) []int {
	adj := g.Adjacency()
	n := g.N
	numbered := make([]bool, n)
	weight := make([]int, n)
	order := make([]int, 0, n)

	words := (n + 63) / 64
	// buckets[w] holds the unnumbered vertices of weight w as a bitset;
	// counts[w] tracks the bucket's population for O(1) emptiness and
	// tie-set size checks. Levels are grown lazily (weights only ever
	// increase by one).
	buckets := [][]uint64{make([]uint64, words)}
	counts := []int{n}
	for v := 0; v < n; v++ {
		buckets[0][v>>6] |= 1 << uint(v&63)
	}
	curMax := 0

	pick := func(v int) {
		numbered[v] = true
		buckets[weight[v]][v>>6] &^= 1 << uint(v&63)
		counts[weight[v]]--
		order = append(order, v)
		for _, w := range adj[v] {
			if numbered[w] {
				continue
			}
			buckets[weight[w]][w>>6] &^= 1 << uint(w&63)
			counts[weight[w]]--
			weight[w]++
			if weight[w] >= len(buckets) {
				buckets = append(buckets, make([]uint64, words))
				counts = append(counts, 0)
			}
			buckets[weight[w]][w>>6] |= 1 << uint(w&63)
			counts[weight[w]]++
			if weight[w] > curMax {
				curMax = weight[w]
			}
		}
	}

	for _, v := range initial {
		if v >= 0 && v < n && !numbered[v] {
			pick(v)
		}
	}
	for len(order) < n {
		for curMax > 0 && counts[curMax] == 0 {
			curMax--
		}
		b := buckets[curMax]
		var best int
		if rng != nil && counts[curMax] > 1 {
			best = selectBit(b, rng.Intn(counts[curMax]))
		} else {
			best = firstBit(b)
		}
		pick(best)
	}
	return order
}

// firstBit returns the index of the lowest set bit of the bitset.
func firstBit(b []uint64) int {
	for i, w := range b {
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// selectBit returns the index of the k-th (0-based, ascending) set bit.
func selectBit(b []uint64, k int) int {
	for i, w := range b {
		c := bits.OnesCount64(w)
		if k >= c {
			k -= c
			continue
		}
		for ; ; w &= w - 1 {
			if k == 0 {
				return i<<6 + bits.TrailingZeros64(w)
			}
			k--
		}
	}
	return -1
}

// EliminationOrder reverses an MCS numbering into the elimination order
// bucket elimination follows (xn is eliminated first).
func EliminationOrder(mcsOrder []int) []int {
	out := make([]int, len(mcsOrder))
	for i, v := range mcsOrder {
		out[len(mcsOrder)-1-i] = v
	}
	return out
}

// liveRows is the mutable adjacency of an elimination simulation, one
// bitset row per vertex. A nil row marks an eliminated vertex. The fill
// step — connecting a vertex's live neighbors into a clique — is a
// handful of word-wide ORs per neighbor instead of the per-pair map
// inserts of the hash-set representation this replaces.
type liveRows struct {
	words int
	rows  [][]uint64
}

// liveSets builds the mutable adjacency rows for elimination simulation.
func liveSets(g *graph.Graph) *liveRows {
	words := (g.N + 63) / 64
	lr := &liveRows{words: words, rows: make([][]uint64, g.N)}
	backing := make([]uint64, g.N*words)
	for i := range lr.rows {
		lr.rows[i] = backing[i*words : (i+1)*words]
	}
	for _, e := range g.Edges {
		lr.rows[e[0]][e[1]>>6] |= 1 << uint(e[1]&63)
		lr.rows[e[1]][e[0]>>6] |= 1 << uint(e[0]&63)
	}
	return lr
}

// degree returns the live degree of v.
func (lr *liveRows) degree(v int) int {
	d := 0
	for _, w := range lr.rows[v] {
		d += bits.OnesCount64(w)
	}
	return d
}

// neighbors returns v's live neighbors in ascending order.
func (lr *liveRows) neighbors(v int) []int {
	out := make([]int, 0, lr.degree(v))
	for i, w := range lr.rows[v] {
		for ; w != 0; w &= w - 1 {
			out = append(out, i<<6+bits.TrailingZeros64(w))
		}
	}
	return out
}

// missingPairs counts the non-adjacent pairs among v's live neighbors —
// the fill edges eliminating v would add. Each neighbor u contributes
// |N(v) \ N(u)| - 1 missing partners (u itself is never in N(u)), and
// every missing pair is counted from both ends.
func (lr *liveRows) missingPairs(v int) int {
	row := lr.rows[v]
	total := 0
	for i, w := range row {
		for ; w != 0; w &= w - 1 {
			u := i<<6 + bits.TrailingZeros64(w)
			ru := lr.rows[u]
			c := 0
			for j, x := range row {
				c += bits.OnesCount64(x &^ ru[j])
			}
			total += c - 1
		}
	}
	return total / 2
}

// eliminate removes v from the live rows, connecting its live neighbors
// into a clique (the fill step). It returns v's live neighbors at the time
// of elimination, in ascending order.
func eliminate(lr *liveRows, v int) []int {
	nbrs := lr.neighbors(v)
	row := lr.rows[v]
	for _, u := range nbrs {
		ru := lr.rows[u]
		for j := range ru {
			ru[j] |= row[j]
		}
		ru[u>>6] &^= 1 << uint(u&63) // no self-loop
		ru[v>>6] &^= 1 << uint(v&63) // drop the eliminated vertex
	}
	lr.rows[v] = nil
	return nbrs
}

// MinFill returns the min-fill elimination order: repeatedly eliminate the
// vertex whose elimination adds the fewest fill edges. A standard
// treewidth heuristic, used here as an ablation against the paper's MCS
// choice.
func MinFill(g *graph.Graph) []int {
	adj := liveSets(g)
	order := make([]int, 0, g.N)
	removed := make([]bool, g.N)
	for len(order) < g.N {
		best, bestFill := -1, int(^uint(0)>>1)
		for v := 0; v < g.N; v++ {
			if removed[v] {
				continue
			}
			if fill := adj.missingPairs(v); fill < bestFill {
				best, bestFill = v, fill
			}
		}
		eliminate(adj, best)
		removed[best] = true
		order = append(order, best)
	}
	return order
}

// MinDegree returns the min-degree elimination order: repeatedly eliminate
// a vertex of minimum live degree.
func MinDegree(g *graph.Graph) []int {
	adj := liveSets(g)
	order := make([]int, 0, g.N)
	removed := make([]bool, g.N)
	for len(order) < g.N {
		best, bestDeg := -1, int(^uint(0)>>1)
		for v := 0; v < g.N; v++ {
			if !removed[v] {
				if d := adj.degree(v); d < bestDeg {
					best, bestDeg = v, d
				}
			}
		}
		eliminate(adj, best)
		removed[best] = true
		order = append(order, best)
	}
	return order
}

// InducedWidth returns the induced width of the elimination order on g:
// the maximum number of live neighbors any vertex has at the moment it is
// eliminated. By Theorem 2, the minimum over all orders equals the
// treewidth. elim must be a permutation of g's vertices.
func InducedWidth(g *graph.Graph, elim []int) int {
	adj := liveSets(g)
	w := 0
	for _, v := range elim {
		if n := len(eliminate(adj, v)); n > w {
			w = n
		}
	}
	return w
}

// FromOrder builds the tree decomposition induced by an elimination
// order: each eliminated vertex v yields the bag {v} ∪ liveNeighbors(v),
// and v's node is attached to the node of its earliest-eliminated live
// neighbor. The decomposition's width equals InducedWidth(g, elim).
// Disconnected pieces are chained so the result is a single tree.
func FromOrder(g *graph.Graph, elim []int) *Decomposition {
	if g.N == 0 {
		return &Decomposition{}
	}
	adj := liveSets(g)
	position := make([]int, g.N) // elimination position of each vertex
	for i, v := range elim {
		position[v] = i
	}
	bags := make([][]int, g.N) // bag of node i = bag of elim[i]
	attach := make([]int, g.N) // node index each node attaches to, -1 = root
	nodeOf := make([]int, g.N) // vertex -> node index
	for i, v := range elim {
		nodeOf[v] = i
		nbrs := eliminate(adj, v)
		bag := append([]int{v}, nbrs...)
		bags[i] = sortedSet(bag)
		attach[i] = -1
		// Attach to the earliest-eliminated live neighbor (all live
		// neighbors are eliminated after v, so their nodes come later;
		// we record the dependency and wire edges after the loop).
		bestPos := int(^uint(0) >> 1)
		for _, w := range nbrs {
			if position[w] < bestPos {
				bestPos = position[w]
				attach[i] = bestPos
			}
		}
	}
	d := &Decomposition{Bags: bags, Adj: make([][]int, g.N)}
	var roots []int
	for i := range bags {
		if attach[i] >= 0 {
			d.Adj[i] = append(d.Adj[i], attach[i])
			d.Adj[attach[i]] = append(d.Adj[attach[i]], i)
		} else {
			roots = append(roots, i)
		}
	}
	// Chain any extra roots (disconnected graphs) so the skeleton is a
	// single tree. Empty intersections are fine for validity.
	for k := 1; k < len(roots); k++ {
		a, b := roots[k-1], roots[k]
		d.Adj[a] = append(d.Adj[a], b)
		d.Adj[b] = append(d.Adj[b], a)
	}
	return d
}

// MinWeight returns an elimination order for vertex-weighted graphs:
// repeatedly eliminate the vertex whose bag — the vertex plus its live
// neighbors — has the smallest total weight, breaking ties toward fewer
// fill edges. With uniform weights it behaves like min-degree. This is
// the order heuristic behind the weighted-attribute extension the paper
// sketches in Section 7.
func MinWeight(g *graph.Graph, weight []int) []int {
	wt := func(v int) int {
		if v < len(weight) && weight[v] > 0 {
			return weight[v]
		}
		return 1
	}
	adj := liveSets(g)
	order := make([]int, 0, g.N)
	removed := make([]bool, g.N)
	for len(order) < g.N {
		best, bestW, bestFill := -1, int(^uint(0)>>1), int(^uint(0)>>1)
		for v := 0; v < g.N; v++ {
			if removed[v] {
				continue
			}
			w := wt(v)
			for _, u := range adj.neighbors(v) {
				w += wt(u)
			}
			if w > bestW {
				continue
			}
			fill := adj.missingPairs(v)
			if w < bestW || (w == bestW && fill < bestFill) {
				best, bestW, bestFill = v, w, fill
			}
		}
		eliminate(adj, best)
		removed[best] = true
		order = append(order, best)
	}
	return order
}
