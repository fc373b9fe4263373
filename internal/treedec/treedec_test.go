package treedec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"projpush/internal/graph"
)

func TestTrivialDecompositionValid(t *testing.T) {
	g := graph.Complete(5)
	d := &Decomposition{Bags: [][]int{{0, 1, 2, 3, 4}}, Adj: [][]int{nil}}
	if err := d.Validate(g); err != nil {
		t.Fatal(err)
	}
	if d.Width() != 4 {
		t.Fatalf("width = %d, want 4", d.Width())
	}
}

func TestValidateCatchesBadDecompositions(t *testing.T) {
	g := graph.Path(3) // 0-1-2
	cases := []struct {
		name string
		d    *Decomposition
	}{
		{"missing vertex", &Decomposition{
			Bags: [][]int{{0, 1}},
			Adj:  [][]int{nil},
		}},
		{"missing edge", &Decomposition{
			Bags: [][]int{{0, 1}, {2}},
			Adj:  [][]int{{1}, {0}},
		}},
		{"disconnected occurrence", &Decomposition{
			Bags: [][]int{{0, 1}, {1, 2}, {0}},
			Adj:  [][]int{{1}, {0, 2}, {1}},
		}},
		{"cycle skeleton", &Decomposition{
			Bags: [][]int{{0, 1}, {1, 2}, {0, 2}},
			Adj:  [][]int{{1, 2}, {0, 2}, {0, 1}},
		}},
		{"disconnected skeleton", &Decomposition{
			Bags: [][]int{{0, 1}, {1, 2}, {1}, {1}},
			Adj:  [][]int{{1}, {0}, {3}, {2}},
		}},
		{"unsorted bag", &Decomposition{
			Bags: [][]int{{1, 0}, {1, 2}},
			Adj:  [][]int{{1}, {0}},
		}},
		{"out-of-range vertex", &Decomposition{
			Bags: [][]int{{0, 1, 2, 7}},
			Adj:  [][]int{nil},
		}},
	}
	for _, c := range cases {
		if err := c.d.Validate(g); err == nil {
			t.Errorf("%s: Validate accepted invalid decomposition", c.name)
		}
	}
}

func TestValidDecompositionOfPath(t *testing.T) {
	g := graph.Path(4)
	d := &Decomposition{
		Bags: [][]int{{0, 1}, {1, 2}, {2, 3}},
		Adj:  [][]int{{1}, {0, 2}, {1}},
	}
	if err := d.Validate(g); err != nil {
		t.Fatal(err)
	}
	if d.Width() != 1 {
		t.Fatalf("width = %d, want 1", d.Width())
	}
}

func TestMCSNumbering(t *testing.T) {
	g := graph.Cycle(5)
	order := MCS(g, []int{3}, nil)
	if len(order) != 5 || order[0] != 3 {
		t.Fatalf("MCS order = %v, want start at 3", order)
	}
	// Each subsequent vertex must have at least one numbered neighbor
	// (cycle is connected).
	numbered := map[int]bool{3: true}
	adj := g.Adjacency()
	for _, v := range order[1:] {
		hasNumbered := false
		for _, w := range adj[v] {
			if numbered[w] {
				hasNumbered = true
			}
		}
		if !hasNumbered {
			t.Fatalf("MCS picked %v with no numbered neighbor", v)
		}
		numbered[v] = true
	}
}

func TestMCSIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g, err := graph.Random(12, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	order := MCS(g, []int{5, 7}, rng)
	if len(order) != 12 {
		t.Fatalf("order length %d", len(order))
	}
	seen := map[int]bool{}
	for _, v := range order {
		if seen[v] {
			t.Fatalf("duplicate %d in MCS order", v)
		}
		seen[v] = true
	}
	if order[0] != 5 || order[1] != 7 {
		t.Fatalf("initial vertices not first: %v", order)
	}
}

func TestEliminationOrderReverses(t *testing.T) {
	e := EliminationOrder([]int{3, 1, 2})
	if e[0] != 2 || e[1] != 1 || e[2] != 3 {
		t.Fatalf("EliminationOrder = %v", e)
	}
}

func TestInducedWidthKnownGraphs(t *testing.T) {
	// A perfect elimination order on a path gives width 1.
	p := graph.Path(5)
	if w := InducedWidth(p, []int{0, 1, 2, 3, 4}); w != 1 {
		t.Fatalf("path induced width = %d, want 1", w)
	}
	// Eliminating the middle of a star first is bad.
	star := graph.New(4)
	star.AddEdge(0, 1)
	star.AddEdge(0, 2)
	star.AddEdge(0, 3)
	if w := InducedWidth(star, []int{0, 1, 2, 3}); w != 3 {
		t.Fatalf("star bad order width = %d, want 3", w)
	}
	if w := InducedWidth(star, []int{1, 2, 3, 0}); w != 1 {
		t.Fatalf("star good order width = %d, want 1", w)
	}
}

func TestFromOrderWidthMatchesInducedWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(8)
		m := rng.Intn(n * (n - 1) / 2)
		g, err := graph.Random(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		elim := rng.Perm(n)
		d := FromOrder(g, elim)
		if err := d.Validate(g); err != nil {
			t.Fatalf("trial %d: FromOrder produced invalid decomposition: %v", trial, err)
		}
		if d.Width() != InducedWidth(g, elim) {
			t.Fatalf("trial %d: width %d != induced width %d",
				trial, d.Width(), InducedWidth(g, elim))
		}
	}
}

func TestExactKnownTreewidths(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"single vertex", graph.New(1), 0},
		{"edgeless", graph.New(4), 0},
		{"path", graph.Path(6), 1},
		{"cycle", graph.Cycle(6), 2},
		{"K4", graph.Complete(4), 3},
		{"K6", graph.Complete(6), 5},
		{"ladder", graph.Ladder(5), 2},
		{"augmented path", graph.AugmentedPath(5), 1},
		{"augmented ladder", graph.AugmentedLadder(3), 2},
		{"circular ladder needs 3", graph.AugmentedCircularLadder(4), 3},
		{"wheel5", graph.Wheel(5), 3},
	}
	for _, c := range cases {
		tw, order, err := Exact(c.g)
		if err != nil {
			t.Fatal(err)
		}
		if tw != c.want {
			t.Errorf("%s: treewidth = %d, want %d", c.name, tw, c.want)
			continue
		}
		if got := InducedWidth(c.g, order); got != tw {
			t.Errorf("%s: returned order has induced width %d, want %d", c.name, got, tw)
		}
	}
}

func TestExactRejectsLargeGraphs(t *testing.T) {
	if _, _, err := Exact(graph.New(MaxExactVertices + 1)); err == nil {
		t.Fatal("Exact accepted oversized graph")
	}
}

func TestHeuristicsUpperBoundExact(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(6)
		m := rng.Intn(n*(n-1)/2 + 1)
		g, err := graph.Random(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		tw, _, err := Exact(g)
		if err != nil {
			t.Fatal(err)
		}
		for name, elim := range map[string][]int{
			"mcs":       EliminationOrder(MCS(g, nil, nil)),
			"minfill":   MinFill(g),
			"mindegree": MinDegree(g),
		} {
			if w := InducedWidth(g, elim); w < tw {
				t.Fatalf("trial %d: %s width %d below exact treewidth %d (impossible)",
					trial, name, w, tw)
			}
		}
		// Degeneracy lower-bounds treewidth.
		if d := g.Degeneracy(); d > tw {
			t.Fatalf("trial %d: degeneracy %d exceeds treewidth %d", trial, d, tw)
		}
	}
}

func TestMinFillOptimalOnChordal(t *testing.T) {
	// Min-fill finds a zero-fill (perfect) order on chordal graphs;
	// a k-tree has treewidth k. Build a small 2-tree.
	g := graph.New(6)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2) // base triangle
	g.AddEdge(3, 0)
	g.AddEdge(3, 1) // 3 attached to edge (0,1)
	g.AddEdge(4, 1)
	g.AddEdge(4, 2) // 4 attached to (1,2)
	g.AddEdge(5, 3)
	g.AddEdge(5, 1) // 5 attached to (3,1)
	if w := InducedWidth(g, MinFill(g)); w != 2 {
		t.Fatalf("min-fill width on 2-tree = %d, want 2", w)
	}
	// MCS is also perfect on chordal graphs (Tarjan–Yannakakis).
	if w := InducedWidth(g, EliminationOrder(MCS(g, nil, nil))); w != 2 {
		t.Fatalf("MCS width on 2-tree = %d, want 2", w)
	}
}

func TestQuickFromOrderAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(9)
		maxM := n * (n - 1) / 2
		g, err := graph.Random(n, rng.Intn(maxM+1), rng)
		if err != nil {
			return false
		}
		elim := rng.Perm(n)
		d := FromOrder(g, elim)
		return d.Validate(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestMarkAndSweepPath(t *testing.T) {
	// Path 0-1-2-3 with relations {0,1},{1,2},{2,3} and target {0}.
	g := graph.Path(4)
	d := FromOrder(g, []int{3, 2, 1, 0})
	rels := [][]int{{0, 1}, {1, 2}, {2, 3}, {0}}
	s, err := MarkAndSweep(d, rels)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Dec.Validate(g); err != nil {
		t.Fatalf("swept decomposition invalid: %v", err)
	}
	if s.Dec.Width() > d.Width() {
		t.Fatalf("sweep increased width: %d > %d", s.Dec.Width(), d.Width())
	}
	// Every relation's node must cover it.
	for j, rel := range rels {
		if !containsAll(s.Dec.Bags[s.RelNode[j]], rel) {
			t.Fatalf("relation %d not covered by assigned node", j)
		}
	}
	// Every leaf hosts at least one relation (Lemma 2).
	hosted := make(map[int]bool)
	for _, nd := range s.RelNode {
		hosted[nd] = true
	}
	for i, nb := range s.Dec.Adj {
		if len(nb) <= 1 && !hosted[i] {
			t.Fatalf("leaf %d (bag %v) hosts no relation", i, s.Dec.Bags[i])
		}
	}
}

func TestMarkAndSweepDropsUselessNodes(t *testing.T) {
	// A decomposition with a vertex (4) that belongs to no relation:
	// the sweep must remove it.
	g := graph.New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(1, 4)
	d := FromOrder(g, []int{0, 4, 2, 1, 3})
	if err := d.Validate(g); err != nil {
		t.Fatal(err)
	}
	rels := [][]int{{0, 1}, {1, 2}}
	s, err := MarkAndSweep(d, rels)
	if err != nil {
		t.Fatal(err)
	}
	for _, bag := range s.Dec.Bags {
		if bagHas(bag, 4) {
			t.Fatal("vertex 4 not swept out")
		}
		if bagHas(bag, 3) {
			t.Fatal("isolated vertex 3 not swept out")
		}
	}
}

func TestMarkAndSweepErrorOnUncoveredRelation(t *testing.T) {
	g := graph.Path(3)
	d := FromOrder(g, []int{0, 1, 2})
	if _, err := MarkAndSweep(d, [][]int{{0, 2}}); err == nil {
		t.Fatal("accepted relation covered by no bag")
	}
}

func TestQuickMarkAndSweepPreservesValidityAndWidth(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		m := 1 + rng.Intn(2*n)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g, err := graph.Random(n, m, rng)
		if err != nil {
			return false
		}
		// Relations: the graph's edges; target: one endpoint.
		var rels [][]int
		for _, e := range g.Edges {
			u, v := e[0], e[1]
			if u > v {
				u, v = v, u
			}
			rels = append(rels, []int{u, v})
		}
		rels = append(rels, []int{g.Edges[0][0]})
		d := FromOrder(g, EliminationOrder(MCS(g, nil, rng)))
		s, err := MarkAndSweep(d, rels)
		if err != nil {
			return false
		}
		// The swept decomposition must stay valid for the subgraph on
		// relation vertices. Build that subgraph: all vertices with an
		// edge (isolated vertices may be swept away).
		sub := graph.New(g.N)
		touched := map[int]bool{}
		for _, e := range g.Edges {
			sub.AddEdge(e[0], e[1])
			touched[e[0]] = true
			touched[e[1]] = true
		}
		// Validate manually: edge coverage, occurrence connectivity and
		// width bound (vertex coverage only for touched vertices).
		if s.Dec.Width() > d.Width() {
			return false
		}
		covered := map[int]bool{}
		for _, b := range s.Dec.Bags {
			for _, v := range b {
				covered[v] = true
			}
		}
		for v := range touched {
			if !covered[v] {
				return false
			}
		}
		for j, rel := range rels {
			if !containsAll(s.Dec.Bags[s.RelNode[j]], rel) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
