package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/jointree"
	"projpush/internal/plan"
	"projpush/internal/treedec"
)

// InducedWidth reports the maximum intermediate arity of the
// bucket-elimination process for q under the given variable order —
// computable from the schemas alone, without touching data (Section 5
// notes the process is data-independent). It equals the width of the
// bucket-elimination plan, which is how the tests measure an order.
func InducedWidth(q *cq.Query, order []cq.Var) (int, error) {
	p, err := BucketEliminationOrder(q, order)
	if err != nil {
		return 0, err
	}
	return plan.Analyze(p).Width, nil
}

func colorQuery(t *testing.T, g *graph.Graph) *cq.Query {
	t.Helper()
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestStraightforwardShape(t *testing.T) {
	q := colorQuery(t, graph.Path(5))
	p, err := Straightforward(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(p, q); err != nil {
		t.Fatal(err)
	}
	s := plan.Analyze(p)
	if s.Projects != 1 {
		t.Fatalf("straightforward must have exactly one projection, got %d", s.Projects)
	}
	if s.Width != 5 {
		t.Fatalf("width = %d, want 5 (all variables live)", s.Width)
	}
}

func TestEarlyProjectionShapeOnPath(t *testing.T) {
	q := colorQuery(t, graph.Path(6))
	p, err := EarlyProjection(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(p, q); err != nil {
		t.Fatal(err)
	}
	// On a path listed in order, early projection keeps only the
	// frontier: width 3 (join of a 2-ary with an edge) — except the free
	// variable v0 rides along, giving width at most 4.
	if w := plan.Analyze(p).Width; w > 4 {
		t.Fatalf("early projection width on path = %d, want <= 4", w)
	}
	sf, _ := Straightforward(q)
	if plan.Analyze(p).Width >= plan.Analyze(sf).Width {
		t.Fatal("early projection did not reduce width on a path")
	}
}

func TestEarlyProjectionKeepsFreeVariables(t *testing.T) {
	g := graph.Path(6)
	q, err := instance.ColorQuery(g, []cq.Var{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	p, err := EarlyProjection(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(p, q); err != nil {
		t.Fatal(err)
	}
	attrs := p.Attrs()
	if len(attrs) != 2 {
		t.Fatalf("root attrs = %v", attrs)
	}
}

func TestGreedyOrderIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g, err := graph.Random(12, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	q := colorQuery(t, g)
	perm := GreedyOrder(q, rng)
	if len(perm) != len(q.Atoms) {
		t.Fatalf("perm length %d", len(perm))
	}
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			t.Fatalf("not a permutation: %v", perm)
		}
		seen[p] = true
	}
}

func TestGreedyOrderPrefersDyingVariables(t *testing.T) {
	// Star: center 0 with leaves. Every atom has one dying variable
	// (the leaf) and shares the center. An augmented-path-like query
	// where one atom has two dying variables must be picked first.
	q := &cq.Query{
		Atoms: []cq.Atom{
			{Rel: "edge", Args: []cq.Var{0, 1}}, // 1 dies
			{Rel: "edge", Args: []cq.Var{0, 2}}, // 2 dies
			{Rel: "edge", Args: []cq.Var{3, 4}}, // both die
		},
		Free: []cq.Var{0},
	}
	perm := GreedyOrder(q, nil)
	if perm[0] != 2 {
		t.Fatalf("greedy picked %d first, want atom 2 (two dying vars)", perm[0])
	}
}

func TestBucketEliminationWidthTheorem2(t *testing.T) {
	// With the optimal elimination order, the bucket-elimination plan's
	// width is exactly treewidth+1 (Theorem 2). Use truly Boolean
	// queries so the target schema adds no clique.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(6)
		m := n - 1 + rng.Intn(n)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g, err := graph.Random(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		if g.M() == 0 {
			continue
		}
		q, err := instance.ColorQuery(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		q.Free = nil
		jg := jointree.BuildJoinGraph(q)
		tw, elim, err := treedec.Exact(jg.G)
		if err != nil {
			t.Fatal(err)
		}
		// Variable order = reverse elimination order (bucket i is
		// processed from the end).
		order := make([]cq.Var, len(elim))
		for i, v := range elim {
			order[len(elim)-1-i] = jg.Vars[v]
		}
		w, err := InducedWidth(q, order)
		if err != nil {
			t.Fatal(err)
		}
		if w != tw+1 {
			t.Fatalf("trial %d: bucket plan width %d, want tw+1 = %d", trial, w, tw+1)
		}
		// MCS order can only be as good or worse.
		mcsW, err := InducedWidth(q, mustVarOrder(t, q, OrderMCS, nil))
		if err != nil {
			t.Fatal(err)
		}
		if mcsW < w {
			t.Fatalf("trial %d: MCS width %d below optimal %d", trial, mcsW, w)
		}
	}
}

func TestBucketEliminationOrderValidation(t *testing.T) {
	q := colorQuery(t, graph.Path(3))
	if _, err := BucketEliminationOrder(q, []cq.Var{0, 1}); err == nil {
		t.Fatal("accepted order missing a variable")
	}
	if _, err := BucketEliminationOrder(q, []cq.Var{0, 1, 1, 2}); err == nil {
		t.Fatal("accepted order with duplicate")
	}
	// Free variable not first.
	if _, err := BucketEliminationOrder(q, []cq.Var{1, 2, 0}); err == nil {
		t.Fatal("accepted order with free variable not first")
	}
}

func TestAllMethodsValidateAndAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	db := instance.ColorDatabase(3)
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(5)
		m := n + rng.Intn(n)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g, err := graph.Random(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		if g.M() == 0 {
			continue
		}
		var free []cq.Var
		if trial%2 == 0 {
			free = instance.BooleanFree(g)
		} else {
			free = instance.ChooseFree(instance.EdgeVertices(g), 0.2, rng)
		}
		q, err := instance.ColorQuery(g, free)
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.EvalOracle(q, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range Methods {
			p, err := BuildPlan(m, q, rng)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, m, err)
			}
			if err := plan.Validate(p, q); err != nil {
				t.Fatalf("trial %d %s: invalid plan: %v", trial, m, err)
			}
			res, err := engine.Exec(p, db, engine.Options{})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, m, err)
			}
			if !res.Rel.Equal(want) {
				t.Fatalf("trial %d %s: result %v != oracle %v", trial, m, res.Rel, want)
			}
		}
	}
}

func TestAllMethodsAgreeOnSAT(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(4)
		mm := 3 + rng.Intn(3*n)
		s, err := instance.RandomSAT(3, n, mm, rng)
		if err != nil {
			t.Fatal(err)
		}
		vars := instance.SATVariablesInClauses(s)
		q, db, err := instance.SATQuery(s, vars[:1])
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.EvalOracle(q, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range Methods {
			p, err := BuildPlan(m, q, rng)
			if err != nil {
				t.Fatalf("%s: %v", m, err)
			}
			if err := plan.Validate(p, q); err != nil {
				t.Fatalf("%s: invalid plan: %v", m, err)
			}
			res, err := engine.Exec(p, db, engine.Options{})
			if err != nil {
				t.Fatalf("%s: %v", m, err)
			}
			if !res.Rel.Equal(want) {
				t.Fatalf("%s: disagrees with oracle on 3-SAT", m)
			}
		}
	}
}

func TestStructuredFamiliesWidths(t *testing.T) {
	// Bucket elimination must achieve small widths on the structured
	// families; the straightforward method cannot.
	cases := []struct {
		name   string
		g      *graph.Graph
		maxBEW int // generous bound on bucket-elimination width
	}{
		{"augmented path", graph.AugmentedPath(10), 4},
		{"ladder", graph.Ladder(10), 4},
		{"augmented ladder", graph.AugmentedLadder(8), 5},
		{"augmented circular ladder", graph.AugmentedCircularLadder(8), 6},
	}
	for _, c := range cases {
		q := colorQuery(t, c.g)
		be, err := BucketElimination(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		beW := plan.Analyze(be).Width
		if beW > c.maxBEW {
			t.Errorf("%s: bucket elimination width = %d, want <= %d", c.name, beW, c.maxBEW)
		}
		sf, err := Straightforward(q)
		if err != nil {
			t.Fatal(err)
		}
		if sfW := plan.Analyze(sf).Width; sfW <= beW {
			t.Errorf("%s: straightforward width %d not above bucket width %d", c.name, sfW, beW)
		}
	}
}

func TestBuildPlanUnknownMethod(t *testing.T) {
	q := colorQuery(t, graph.Path(3))
	if _, err := BuildPlan(Method("nope"), q, nil); err == nil {
		t.Fatal("accepted unknown method")
	}
}

func TestEmptyQueryRejected(t *testing.T) {
	empty := &cq.Query{}
	for _, m := range Methods {
		if _, err := BuildPlan(m, empty, nil); err == nil {
			t.Errorf("%s accepted empty query", m)
		}
	}
}

func TestStraightforwardOrder(t *testing.T) {
	q := colorQuery(t, graph.Path(4))
	p, err := StraightforwardOrder(q, []int{2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	atoms := plan.Atoms(p)
	if atoms[0].String() != q.Atoms[2].String() {
		t.Fatalf("permuted first atom = %v", atoms[0])
	}
	if _, err := StraightforwardOrder(q, []int{0, 0, 1}); err == nil {
		t.Fatal("accepted invalid permutation")
	}
}

func TestQuickMethodsEquivalence(t *testing.T) {
	db := instance.ColorDatabase(3)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(4)
		m := 1 + rng.Intn(2*n)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g, err := graph.Random(n, m, rng)
		if err != nil || g.M() == 0 {
			return err == nil
		}
		q, err := instance.ColorQuery(g, instance.BooleanFree(g))
		if err != nil {
			return false
		}
		want, err := engine.OracleNonempty(q, db)
		if err != nil {
			return false
		}
		for _, m := range Methods {
			p, err := BuildPlan(m, q, rng)
			if err != nil {
				return false
			}
			res, err := engine.Exec(p, db, engine.Options{})
			if err != nil {
				return false
			}
			if res.Nonempty() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTrulyBooleanBucketElimination(t *testing.T) {
	q := colorQuery(t, graph.Cycle(5))
	q.Free = nil
	p, err := BucketElimination(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(p, q); err != nil {
		t.Fatal(err)
	}
	res, err := engine.Exec(p, instance.ColorDatabase(3), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Nonempty() {
		t.Fatal("5-cycle is 3-colorable")
	}
	if res.Rel.Arity() != 0 {
		t.Fatalf("Boolean result arity = %d", res.Rel.Arity())
	}
}

func TestDisconnectedQueryBucketElimination(t *testing.T) {
	// Two disjoint triangles; the second is a Boolean factor.
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		g.AddEdge(e[0], e[1])
	}
	q := colorQuery(t, g)
	p, err := BucketElimination(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(p, q); err != nil {
		t.Fatal(err)
	}
	res, err := engine.Exec(p, instance.ColorDatabase(3), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 3 {
		t.Fatalf("result = %v, want all 3 colors", res.Rel)
	}
}
