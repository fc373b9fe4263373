package instance

import (
	"math/rand"
	"testing"
	"testing/quick"

	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/graph"
	"projpush/internal/relation"
)

func TestColorDatabase(t *testing.T) {
	db := ColorDatabase(3)
	e := db["edge"]
	if e.Len() != 6 {
		t.Fatalf("3-COLOR edge relation has %d tuples, want 6", e.Len())
	}
	e.Each(func(tu relation.Tuple) bool {
		if tu[0] == tu[1] {
			t.Fatalf("monochromatic tuple %v", tu)
		}
		return true
	})
	if ColorDatabase(2)["edge"].Len() != 2 {
		t.Fatal("2-COLOR edge relation must have 2 tuples")
	}
}

func TestColorQueryStructure(t *testing.T) {
	g := graph.Cycle(5)
	q, err := ColorQuery(g, BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Atoms) != 5 {
		t.Fatalf("atoms = %d, want 5", len(q.Atoms))
	}
	if len(q.Free) != 1 || q.Free[0] != g.Edges[0][0] {
		t.Fatalf("Boolean free = %v", q.Free)
	}
	if err := q.Validate(ColorDatabase(3)); err != nil {
		t.Fatal(err)
	}
}

func TestColorQueryRejectsEdgeless(t *testing.T) {
	if _, err := ColorQuery(graph.New(5), nil); err == nil {
		t.Fatal("accepted edgeless graph")
	}
}

func TestColorQueryRejectsIsolatedFreeVertex(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	if _, err := ColorQuery(g, []cq.Var{2}); err == nil {
		t.Fatal("accepted free vertex with no edges")
	}
}

// colorable decides k-colorability by brute force, as an oracle.
func colorable(g *graph.Graph, k int) bool {
	colors := make([]int, g.N)
	var rec func(v int) bool
	rec = func(v int) bool {
		if v == g.N {
			return true
		}
		for c := 0; c < k; c++ {
			ok := true
			for _, e := range g.Edges {
				var u int
				switch {
				case e[0] == v && e[1] < v:
					u = e[1]
				case e[1] == v && e[0] < v:
					u = e[0]
				default:
					continue
				}
				if colors[u] == c {
					ok = false
					break
				}
			}
			if ok {
				colors[v] = c
				if rec(v + 1) {
					return true
				}
			}
		}
		return false
	}
	return rec(0)
}

func TestColorQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := ColorDatabase(3)
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(4)
		m := n + rng.Intn(2*n)
		if m > n*(n-1)/2 {
			m = n * (n - 1) / 2
		}
		g, err := graph.Random(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		if g.M() == 0 {
			continue
		}
		q, err := ColorQuery(g, BooleanFree(g))
		if err != nil {
			t.Fatal(err)
		}
		got, err := engine.OracleNonempty(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if want := colorable(g, 3); got != want {
			t.Fatalf("trial %d: query nonempty=%v, colorable=%v for %v", trial, got, want, g)
		}
	}
}

func TestKnownColorability(t *testing.T) {
	db := ColorDatabase(3)
	cases := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"triangle", graph.Cycle(3), true},
		{"odd cycle", graph.Cycle(7), true},
		{"K4", graph.Complete(4), false},
		{"even wheel", graph.Wheel(4), true},
		{"odd wheel", graph.Wheel(5), false},
		{"ladder", graph.Ladder(5), true},
		{"augmented circular ladder", graph.AugmentedCircularLadder(4), true},
	}
	for _, c := range cases {
		q, err := ColorQuery(c.g, BooleanFree(c.g))
		if err != nil {
			t.Fatal(err)
		}
		got, err := engine.OracleNonempty(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s: 3-colorable = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBipartiteTwoColoring(t *testing.T) {
	db := ColorDatabase(2)
	q, err := ColorQuery(graph.Ladder(4), BooleanFree(graph.Ladder(4)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := engine.OracleNonempty(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("ladder is bipartite, must be 2-colorable")
	}
	qc, err := ColorQuery(graph.Cycle(5), BooleanFree(graph.Cycle(5)))
	if err != nil {
		t.Fatal(err)
	}
	got, err = engine.OracleNonempty(qc, db)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("odd cycle must not be 2-colorable")
	}
}

func TestChooseFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cand := []cq.Var{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	free := ChooseFree(cand, 0.2, rng)
	if len(free) != 2 {
		t.Fatalf("20%% of 10 = %d vars, want 2", len(free))
	}
	for i := 1; i < len(free); i++ {
		if free[i-1] >= free[i] {
			t.Fatal("free vars not sorted/distinct")
		}
	}
	if got := ChooseFree(cand, 0, rng); got != nil {
		t.Fatal("frac 0 must give nil")
	}
	if got := ChooseFree(nil, 0.5, rng); got != nil {
		t.Fatal("empty candidates must give nil")
	}
	// Ceiling behaviour: 20% of 6 candidates = 2 (⌈1.2⌉).
	if got := ChooseFree(cand[:6], 0.2, rng); len(got) != 2 {
		t.Fatalf("⌈0.2·6⌉ = %d, want 2", len(got))
	}
	// frac >= 1 keeps everything.
	if got := ChooseFree(cand, 1.0, rng); len(got) != len(cand) {
		t.Fatalf("frac 1.0 kept %d of %d", len(got), len(cand))
	}
}

func TestEdgeVertices(t *testing.T) {
	g := graph.New(6)
	g.AddEdge(4, 1)
	g.AddEdge(1, 3)
	got := EdgeVertices(g)
	want := []cq.Var{1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("EdgeVertices = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EdgeVertices = %v, want %v", got, want)
		}
	}
}

func TestSATDatabaseShapes(t *testing.T) {
	db3 := SATDatabase(3)
	if len(db3) != 8 {
		t.Fatalf("3-SAT database has %d relations, want 8", len(db3))
	}
	for name, rel := range db3 {
		if rel.Arity() != 3 || rel.Len() != 7 {
			t.Fatalf("%s: arity=%d len=%d, want 3,7", name, rel.Arity(), rel.Len())
		}
	}
	db2 := SATDatabase(2)
	if len(db2) != 4 {
		t.Fatalf("2-SAT database has %d relations, want 4", len(db2))
	}
	for name, rel := range db2 {
		if rel.Arity() != 2 || rel.Len() != 3 {
			t.Fatalf("%s: arity=%d len=%d, want 2,3", name, rel.Arity(), rel.Len())
		}
	}
}

func TestSATDatabaseExcludesFalsifyingAssignment(t *testing.T) {
	db := SATDatabase(3)
	// All-positive clause c3_111 is falsified only by (0,0,0).
	if db["c3_111"].Contains([]int32{0, 0, 0}) {
		t.Fatal("c3_111 contains its falsifying assignment")
	}
	if !db["c3_111"].Contains([]int32{1, 0, 0}) {
		t.Fatal("c3_111 missing a satisfying assignment")
	}
	// All-negative clause c3_000 is falsified only by (1,1,1).
	if db["c3_000"].Contains([]int32{1, 1, 1}) {
		t.Fatal("c3_000 contains its falsifying assignment")
	}
}

// satBruteForce decides satisfiability by enumeration.
func satBruteForce(s *SAT) bool {
	for asg := 0; asg < 1<<s.NumVars; asg++ {
		ok := true
		for _, cl := range s.Clauses {
			sat := false
			for _, lit := range cl {
				bit := asg&(1<<lit.Var) != 0
				if bit == lit.Pos {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestSATQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(4)
		m := 2 + rng.Intn(4*n)
		s, err := RandomSAT(3, n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		vars := SATVariablesInClauses(s)
		q, db, err := SATQuery(s, vars[:1])
		if err != nil {
			t.Fatal(err)
		}
		if err := q.Validate(db); err != nil {
			t.Fatal(err)
		}
		got, err := engine.OracleNonempty(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if want := satBruteForce(s); got != want {
			t.Fatalf("trial %d: query=%v, brute force=%v", trial, got, want)
		}
	}
}

func TestSATQueryErrors(t *testing.T) {
	if _, _, err := SATQuery(&SAT{NumVars: 3}, nil); err == nil {
		t.Fatal("accepted empty formula")
	}
	// Mixed clause widths are supported: the database gains pattern
	// relations for every width present.
	s := &SAT{NumVars: 3, Clauses: []Clause{
		{{0, true}, {1, true}, {2, true}},
		{{0, true}, {1, true}},
	}}
	q, db, err := SATQuery(s, []cq.Var{0})
	if err != nil {
		t.Fatalf("mixed clause widths rejected: %v", err)
	}
	if err := q.Validate(db); err != nil {
		t.Fatal(err)
	}
	if len(db) != 12 { // 8 ternary + 4 binary pattern relations
		t.Fatalf("mixed-width database has %d relations, want 12", len(db))
	}
	if _, _, err := SATQuery(&SAT{NumVars: 1, Clauses: []Clause{{}}}, nil); err == nil {
		t.Fatal("accepted empty clause")
	}
	bad := &SAT{NumVars: 3, Clauses: []Clause{
		{{0, true}, {0, false}, {2, true}},
	}}
	if _, _, err := SATQuery(bad, nil); err == nil {
		t.Fatal("accepted clause repeating a variable")
	}
}

func TestRandomSATShape(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s, err := RandomSAT(3, 10, 42, rng)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVars != 10 || len(s.Clauses) != 42 {
		t.Fatalf("shape: %+v", s)
	}
	if d := s.Density(); d != 4.2 {
		t.Fatalf("density = %f, want 4.2", d)
	}
	for _, cl := range s.Clauses {
		if len(cl) != 3 {
			t.Fatal("clause width != 3")
		}
		seen := map[int]bool{}
		for _, lit := range cl {
			if lit.Var < 0 || lit.Var >= 10 || seen[lit.Var] {
				t.Fatalf("bad clause %v", cl)
			}
			seen[lit.Var] = true
		}
	}
	if _, err := RandomSAT(5, 3, 1, rng); err == nil {
		t.Fatal("accepted k > n")
	}
}

func TestQuick2SATQueriesConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(4)
		m := 1 + rng.Intn(3*n)
		s, err := RandomSAT(2, n, m, rng)
		if err != nil {
			return false
		}
		vars := SATVariablesInClauses(s)
		q, db, err := SATQuery(s, vars[:1])
		if err != nil {
			return false
		}
		got, err := engine.OracleNonempty(q, db)
		if err != nil {
			return false
		}
		return got == satBruteForce(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
