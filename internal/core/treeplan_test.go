package core

import (
	"math/rand"
	"slices"
	"testing"

	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/jointree"
	"projpush/internal/plan"
)

func TestTreeDecompositionPlanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	db := instance.ColorDatabase(3)
	for trial := 0; trial < 15; trial++ {
		n := 5 + rng.Intn(5)
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
		q := colorQuery(t, g)
		want, err := engine.EvalOracle(q, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []OrderHeuristic{OrderMCS, OrderMinFill, OrderMinDegree} {
			p, err := TreeDecompositionPlan(q, h, rng)
			if err != nil {
				t.Fatalf("%s: %v", h, err)
			}
			if err := plan.Validate(p, q); err != nil {
				t.Fatalf("%s: invalid plan: %v", h, err)
			}
			res, err := engine.Exec(p, db, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Rel.Equal(want) {
				t.Fatalf("trial %d %s: tree-decomposition plan disagrees with oracle", trial, h)
			}
		}
	}
}

func TestTreeDecompositionPlanWidthTracksBucketElimination(t *testing.T) {
	// Both paths realize Theorem 1/2 widths; under the *same* MCS order
	// the tree-decomposition plan can be no wider than the induced
	// decomposition width + 1, which is the bucket plan's width bound.
	g := graph.AugmentedCircularLadder(6)
	q := colorQuery(t, g)
	tp, err := TreeDecompositionPlan(q, OrderMCS, nil)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := BucketElimination(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	tw := plan.Analyze(tp).Width
	bw := plan.Analyze(bp).Width
	if tw > bw {
		t.Fatalf("tree-decomposition width %d exceeds bucket width %d under the same heuristic", tw, bw)
	}
	// The same order: under MCS a nil rng gives jointree.Analyze's.
	jg, elim, err := EliminationOrder(q, OrderMCS, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := jointree.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	order := jg.VarSet(elim)
	slices.Reverse(order)
	if !slices.Equal(order, s.Order) {
		t.Fatalf("MCS variable order %v, jointree.Analyze's %v", order, s.Order)
	}
}

func TestTreeDecompositionPlanErrors(t *testing.T) {
	q := colorQuery(t, graph.Path(3))
	if _, err := TreeDecompositionPlan(q, OrderHeuristic("nope"), nil); err == nil {
		t.Fatal("accepted unknown heuristic")
	}
	if _, err := TreeDecompositionPlan(&cq.Query{}, OrderMCS, nil); err == nil {
		t.Fatal("accepted empty query")
	}
}

func TestWeightedBucketElimination(t *testing.T) {
	// A star with a heavy center: weighted order should not behave
	// pathologically, and results must match the oracle.
	g := graph.AugmentedPath(6)
	q := colorQuery(t, g)
	db := instance.ColorDatabase(3)
	w := plan.Weights{ByVar: map[cq.Var]int{0: 100, 1: 100}, Default: 1}
	p, err := BucketEliminationWeighted(q, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(p, q); err != nil {
		t.Fatal(err)
	}
	res, err := engine.Exec(p, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.EvalOracle(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rel.Equal(want) {
		t.Fatal("weighted bucket elimination disagrees with oracle")
	}
}

func TestWeightedOrderPrefersDroppingHeavyVariables(t *testing.T) {
	// Two chains meeting at the free variable; x10 and x11 are heavy.
	// The weighted plan should never carry both heavy columns together
	// longer than necessary: its weighted width must not exceed the
	// uniform MCS plan's weighted width.
	g := graph.Ladder(6)
	q := colorQuery(t, g)
	w := plan.Weights{ByVar: map[cq.Var]int{5: 50, 6: 50, 7: 50}, Default: 1}
	wp, err := BucketEliminationWeighted(q, w)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := BucketElimination(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, ref := plan.WeightedWidth(wp, w), plan.WeightedWidth(mp, w); got > ref {
		t.Fatalf("weighted order gives weighted width %d, worse than MCS %d", got, ref)
	}
}

func TestMinWeightVarOrderShape(t *testing.T) {
	q := colorQuery(t, graph.Path(5))
	w := plan.Weights{Default: 1}
	order := MinWeightVarOrder(q, w)
	if len(order) != q.NumVars() {
		t.Fatalf("order length %d != %d vars", len(order), q.NumVars())
	}
	if order[0] != q.Free[0] {
		t.Fatalf("free variable not first: %v", order)
	}
	seen := map[cq.Var]bool{}
	for _, v := range order {
		if seen[v] {
			t.Fatalf("duplicate in order: %v", order)
		}
		seen[v] = true
	}
}
