package treedec

import (
	"math/rand"
	"testing"

	"projpush/internal/graph"
)

// IsChordal reports whether g is chordal, using the Tarjan–Yannakakis
// test the paper's MCS heuristic comes from: run maximum cardinality
// search, then verify the reverse numbering is a perfect elimination
// order. On chordal graphs MCS-based bucket elimination is *exact* —
// induced width equals treewidth — which is why the heuristic is a
// reasonable stand-in for the NP-hard optimal order; the tests below
// check that claim with this oracle.
func IsChordal(g *graph.Graph) bool {
	order := MCS(g, nil, nil)
	return IsPerfectEliminationOrder(g, EliminationOrder(order))
}

// IsPerfectEliminationOrder reports whether eliminating the vertices in
// the given order never requires fill edges: each vertex's later
// neighbors already form a clique. elim must be a permutation of g's
// vertices.
func IsPerfectEliminationOrder(g *graph.Graph, elim []int) bool {
	return FillIn(g, elim) == 0
}

// FillIn counts the fill edges the elimination order adds — zero exactly
// for perfect elimination orders, and a standard quality measure for
// elimination heuristics (min-fill greedily minimizes it stepwise).
func FillIn(g *graph.Graph, elim []int) int {
	adj := liveSets(g)
	fill := 0
	for _, v := range elim {
		fill += adj.missingPairs(v)
		eliminate(adj, v)
	}
	return fill
}

func TestIsChordalKnownGraphs(t *testing.T) {
	twoTree := graph.New(5)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 2}, {3, 0}, {3, 1}, {4, 1}, {4, 2}} {
		twoTree.AddEdge(e[0], e[1])
	}
	cases := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"path", graph.Path(6), true},
		{"tree (augmented path)", graph.AugmentedPath(4), true},
		{"complete", graph.Complete(5), true},
		{"triangle", graph.Cycle(3), true},
		{"2-tree", twoTree, true},
		{"C4", graph.Cycle(4), false},
		{"C6", graph.Cycle(6), false},
		{"ladder", graph.Ladder(3), false},
		{"edgeless", graph.New(4), true},
	}
	for _, c := range cases {
		if got := IsChordal(c.g); got != c.want {
			t.Errorf("%s: IsChordal = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestFillIn(t *testing.T) {
	// Eliminating the center of a star first creates a clique on the
	// leaves: C(3,2)=3 fill edges.
	star := graph.New(4)
	star.AddEdge(0, 1)
	star.AddEdge(0, 2)
	star.AddEdge(0, 3)
	if got := FillIn(star, []int{0, 1, 2, 3}); got != 3 {
		t.Fatalf("star bad order fill = %d, want 3", got)
	}
	if got := FillIn(star, []int{1, 2, 3, 0}); got != 0 {
		t.Fatalf("star leaves-first fill = %d, want 0", got)
	}
}

func TestMinFillZeroOnChordal(t *testing.T) {
	// Min-fill achieves zero fill on chordal graphs.
	g := graph.Complete(4)
	g2 := graph.New(6)
	for _, e := range graph.Complete(4).Edges {
		g2.AddEdge(e[0], e[1])
	}
	g2.AddEdge(4, 0)
	g2.AddEdge(5, 4)
	for name, gr := range map[string]*graph.Graph{"K4": g, "K4+path": g2} {
		if fill := FillIn(gr, MinFill(gr)); fill != 0 {
			t.Errorf("%s: min-fill fill-in = %d, want 0", name, fill)
		}
	}
}

func TestChordalImpliesMCSWidthIsTreewidth(t *testing.T) {
	// On chordal graphs MCS achieves exact treewidth — the theory behind
	// the paper's heuristic choice. Build random chordal graphs as
	// k-trees.
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 15; trial++ {
		k := 1 + rng.Intn(3)
		n := k + 2 + rng.Intn(7)
		g := graph.Complete(k + 1)
		full := graph.New(n)
		for _, e := range g.Edges {
			full.AddEdge(e[0], e[1])
		}
		// Attach each new vertex to a random existing k-clique: pick a
		// previously-added vertex set greedily (use the last k vertices
		// of a random clique-preserving choice: attach to vertices of
		// an existing atom — simplest valid construction: attach vertex
		// v to the clique formed by vertex p and k-1 of p's neighbors
		// chosen when p was added; track cliques explicitly).
		cliques := [][]int{}
		base := make([]int, k+1)
		for i := range base {
			base[i] = i
		}
		cliques = append(cliques, base)
		for v := k + 1; v < n; v++ {
			host := cliques[rng.Intn(len(cliques))]
			// Choose k vertices of the host clique.
			perm := rng.Perm(len(host))
			sub := make([]int, k)
			for i := 0; i < k; i++ {
				sub[i] = host[perm[i]]
			}
			for _, u := range sub {
				full.AddEdge(v, u)
			}
			cliques = append(cliques, append(append([]int(nil), sub...), v))
		}
		if !IsChordal(full) {
			t.Fatalf("trial %d: k-tree not chordal", trial)
		}
		mcsWidth := InducedWidth(full, EliminationOrder(MCS(full, nil, rng)))
		if mcsWidth != k {
			t.Fatalf("trial %d: MCS width %d on %d-tree, want %d", trial, mcsWidth, k, k)
		}
		if full.N <= MaxExactVertices {
			tw, _, err := Exact(full)
			if err != nil {
				t.Fatal(err)
			}
			if tw != k {
				t.Fatalf("trial %d: exact treewidth %d on %d-tree", trial, tw, k)
			}
		}
	}
}
