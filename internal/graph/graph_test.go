package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddEdgeDedupAndOrientation(t *testing.T) {
	g := New(3)
	if !g.AddEdge(0, 1) {
		t.Fatal("first AddEdge returned false")
	}
	if g.AddEdge(1, 0) {
		t.Fatal("reversed duplicate accepted")
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if !g.HasEdge(1, 0) || !g.HasEdge(0, 1) {
		t.Fatal("HasEdge must be orientation-insensitive")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("HasEdge found absent edge")
	}
}

func TestAddEdgePanics(t *testing.T) {
	for _, c := range []struct {
		name string
		u, v int
	}{
		{"self-loop", 1, 1},
		{"out of range", 0, 9},
		{"negative", -1, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			New(3).AddEdge(c.u, c.v)
		}()
	}
}

func TestRandomExactEdgeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g, err := Random(20, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 20 || g.M() != 60 {
		t.Fatalf("got n=%d m=%d", g.N, g.M())
	}
	// No duplicates in either orientation, no self-loops.
	seen := map[[2]int]bool{}
	for _, e := range g.Edges {
		if e[0] == e[1] {
			t.Fatal("self-loop generated")
		}
		k := norm(e[0], e[1])
		if seen[k] {
			t.Fatal("duplicate edge generated")
		}
		seen[k] = true
	}
}

func TestRandomRejectsImpossible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Random(4, 7, rng); err == nil {
		t.Fatal("accepted m > n(n-1)/2")
	}
	if _, err := Random(1, 1, rng); err == nil {
		t.Fatal("accepted edges with single vertex")
	}
	if g, err := Random(6, 15, rng); err != nil || g.M() != 15 {
		t.Fatalf("complete graph generation failed: %v", err)
	}
}

func TestRandomDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := RandomDensity(20, 3.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 60 {
		t.Fatalf("density 3.0 on 20 vertices: m = %d, want 60", g.M())
	}
	if d := g.Density(); d != 3.0 {
		t.Fatalf("Density = %f", d)
	}
}

func TestPathCycleComplete(t *testing.T) {
	p := Path(5)
	if p.M() != 4 || p.N != 5 {
		t.Fatalf("path: %v", p)
	}
	if !p.Connected() {
		t.Fatal("path must be connected")
	}
	c := Cycle(5)
	if c.M() != 5 {
		t.Fatalf("cycle: %v", c)
	}
	k := Complete(5)
	if k.M() != 10 || k.MaxDegree() != 4 {
		t.Fatalf("complete: %v", k)
	}
}

func TestWheel(t *testing.T) {
	w := Wheel(5)
	if w.N != 6 || w.M() != 10 {
		t.Fatalf("wheel: %v", w)
	}
	deg := w.Degrees()
	if deg[0] != 5 {
		t.Fatalf("hub degree = %d, want 5", deg[0])
	}
	for i := 1; i <= 5; i++ {
		if deg[i] != 3 {
			t.Fatalf("rim degree = %d, want 3", deg[i])
		}
	}
}

func TestAugmentedPathShape(t *testing.T) {
	g := AugmentedPath(5)
	if g.N != 10 || g.M() != 9 {
		t.Fatalf("augmented path: %v", g)
	}
	if !g.Connected() {
		t.Fatal("augmented path must be connected")
	}
	deg := g.Degrees()
	// Dangling vertices have degree 1.
	for i := 5; i < 10; i++ {
		if deg[i] != 1 {
			t.Fatalf("dangling vertex %d degree = %d", i, deg[i])
		}
	}
	// Path endpoints have degree 2 (one path edge + dangle).
	if deg[0] != 2 || deg[4] != 2 {
		t.Fatalf("endpoint degrees = %d,%d, want 2,2", deg[0], deg[4])
	}
	// Interior path vertices have degree 3.
	for i := 1; i < 4; i++ {
		if deg[i] != 3 {
			t.Fatalf("interior vertex %d degree = %d, want 3", i, deg[i])
		}
	}
}

func TestLadderShape(t *testing.T) {
	g := Ladder(4)
	if g.N != 8 || g.M() != 10 {
		t.Fatalf("ladder: %v", g)
	}
	if !g.Connected() {
		t.Fatal("ladder must be connected")
	}
	if g.MaxDegree() != 3 {
		t.Fatalf("ladder max degree = %d, want 3", g.MaxDegree())
	}
	// Rungs exist.
	for i := 0; i < 4; i++ {
		if !g.HasEdge(i, 4+i) {
			t.Fatalf("missing rung %d", i)
		}
	}
}

func TestAugmentedLadderShape(t *testing.T) {
	g := AugmentedLadder(4)
	if g.N != 16 || g.M() != 18 {
		t.Fatalf("augmented ladder: %v", g)
	}
	if !g.Connected() {
		t.Fatal("augmented ladder must be connected")
	}
	deg := g.Degrees()
	for i := 8; i < 16; i++ {
		if deg[i] != 1 {
			t.Fatalf("dangling vertex %d degree = %d", i, deg[i])
		}
	}
}

func TestAugmentedCircularLadderShape(t *testing.T) {
	g := AugmentedCircularLadder(4)
	if g.N != 16 || g.M() != 20 {
		t.Fatalf("augmented circular ladder: %v", g)
	}
	if !g.HasEdge(3, 0) || !g.HasEdge(7, 4) {
		t.Fatal("rail-closing edges missing")
	}
	// All ladder vertices now have degree 4 (two rail + rung + dangle).
	deg := g.Degrees()
	for i := 0; i < 8; i++ {
		if deg[i] != 4 {
			t.Fatalf("ladder vertex %d degree = %d, want 4", i, deg[i])
		}
	}
}

func TestConnectedDetectsDisconnection(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	if !New(1).Connected() || !New(0).Connected() {
		t.Fatal("trivial graphs must be connected")
	}
}

func TestDegeneracy(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"path", Path(10), 1},
		{"cycle", Cycle(10), 2},
		{"K5", Complete(5), 4},
		{"ladder", Ladder(6), 2},
		{"augmented path", AugmentedPath(6), 1},
		{"edgeless", New(5), 0},
	}
	for _, c := range cases {
		if got := c.g.Degeneracy(); got != c.want {
			t.Errorf("%s: degeneracy = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Path(3)
	c := g.Clone()
	c.AddEdge(0, 2)
	if g.HasEdge(0, 2) {
		t.Fatal("clone shares edge set")
	}
}

func TestQuickRandomGraphInvariants(t *testing.T) {
	f := func(seed int64, nRaw, dRaw uint8) bool {
		n := int(nRaw%30) + 5
		density := float64(dRaw%70)/10 + 0.5
		m := int(density*float64(n) + 0.5)
		if m > n*(n-1)/2 {
			return true // impossible parameters are rejected elsewhere
		}
		rng := rand.New(rand.NewSource(seed))
		g, err := Random(n, m, rng)
		if err != nil {
			return false
		}
		if g.M() != m {
			return false
		}
		seen := map[[2]int]bool{}
		for _, e := range g.Edges {
			if e[0] == e[1] || e[0] < 0 || e[1] >= n {
				return false
			}
			k := norm(e[0], e[1])
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestAdjacencySorted(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	adj := g.Adjacency()
	if len(adj[0]) != 3 || adj[0][0] != 1 || adj[0][2] != 3 {
		t.Fatalf("adjacency not sorted: %v", adj[0])
	}
}

// MaxDegree returns the maximum vertex degree (0 for edgeless graphs).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, d := range g.Degrees() {
		if d > max {
			max = d
		}
	}
	return max
}

// Connected reports whether the graph is connected (vacuously true for
// N <= 1). Only the tests ask, of the generated families.
func (g *Graph) Connected() bool {
	if g.N <= 1 {
		return true
	}
	adj := g.Adjacency()
	visited := make([]bool, g.N)
	stack := []int{0}
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !visited[v] {
				visited[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == g.N
}
