package core

import (
	"math/rand"
	"testing"

	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/plan"
)

func TestNarrowestTiesKeepTheFirst(t *testing.T) {
	scan := func(rel string) plan.Node { return &plan.Scan{Atom: cq.Atom{Rel: rel, Args: []cq.Var{0}}} }
	c := func(rel string, w int) Candidate {
		return Candidate{Plan: scan(rel), Order: OrderHeuristic(rel), Width: w}
	}
	for _, tc := range []struct {
		cands []Candidate
		want  string
	}{
		{[]Candidate{c("a", 5)}, "a"},
		{[]Candidate{c("a", 5), c("b", 5), c("c", 5)}, "a"},
		{[]Candidate{c("a", 5), c("b", 4), c("c", 4)}, "b"},
		{[]Candidate{c("a", 5), c("b", 6), c("c", 3)}, "c"},
		{[]Candidate{c("a", 2), c("b", 6), c("c", 3)}, "a"},
	} {
		got := Narrowest(tc.cands[0], tc.cands[1:]...)
		if string(got.Order) != tc.want {
			t.Errorf("Narrowest(%v) = %s, want %s", tc.cands, got.Order, tc.want)
		}
		for _, c := range tc.cands {
			if got.Width > c.Width {
				t.Errorf("Narrowest(%v) has width %d, over candidate %s's %d", tc.cands, got.Width, c.Order, c.Width)
			}
		}
	}
}

// randomColorQueries is random 3-COLOR queries of order 16–20 at
// densities 2–4 with 0–4 free variables: the shapes on which MCS,
// min-fill and min-degree disagree.
func randomColorQueries(t *testing.T) []*cq.Query {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	var out []*cq.Query
	for _, order := range []int{16, 18, 20} {
		for density := 2; density <= 4; density++ {
			for nfree := 0; nfree <= 4; nfree++ {
				g, err := graph.Random(order, density*order, rng)
				if err != nil {
					t.Fatal(err)
				}
				free := instance.BooleanFree(g)
				if nfree > 0 {
					vs := instance.EdgeVertices(g)
					rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
					free = vs[:nfree]
				}
				q, err := instance.ColorQuery(g, free)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, q)
			}
		}
	}
	return out
}

func TestVarOrderHoldsBackTheTargetSchema(t *testing.T) {
	for i, q := range randomColorQueries(t) {
		for _, h := range []OrderHeuristic{OrderMCS, OrderMinFill, OrderMinDegree} {
			order, err := VarOrder(q, h, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(order) != q.NumVars() {
				t.Fatalf("query %d %s: order has %d variables, query %d", i, h, len(order), q.NumVars())
			}
			for j, v := range q.Free {
				if order[j] != v {
					t.Fatalf("query %d %s: order %v does not start with the free variables %v", i, h, order, q.Free)
				}
			}
			// BucketEliminationOrder checks the rest: a permutation of
			// the variables with the free ones first.
			p, err := BucketEliminationOrder(q, order)
			if err != nil {
				t.Fatalf("query %d %s: %v", i, h, err)
			}
			if err := plan.Validate(p, q); err != nil {
				t.Fatalf("query %d %s: %v", i, h, err)
			}
		}
	}
	if _, err := VarOrder(colorQuery(t, graph.Cycle(4)), "nosuch", nil); err == nil {
		t.Error("unknown heuristic accepted")
	}
}

func mustVarOrder(t *testing.T, q *cq.Query, h OrderHeuristic, rng *rand.Rand) []cq.Var {
	t.Helper()
	order, err := VarOrder(q, h, rng)
	if err != nil {
		t.Fatal(err)
	}
	return order
}

func TestNarrowestBucketEliminationIsNoWiderThanAnyOrder(t *testing.T) {
	db := instance.ColorDatabase(3)
	improved := 0
	for i, q := range randomColorQueries(t) {
		mcsPlan, err := BucketElimination(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		mcs := NewCandidate(mcsPlan, OrderMCS)
		got, err := NarrowestBucketElimination(q, mcs)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(got.Plan, q); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got.Width != plan.Analyze(got.Plan).Width {
			t.Fatalf("query %d: candidate says width %d, plan has %d", i, got.Width, plan.Analyze(got.Plan).Width)
		}
		for _, h := range []OrderHeuristic{OrderMCS, OrderMinFill, OrderMinDegree} {
			w, err := InducedWidth(q, mustVarOrder(t, q, h, nil))
			if err != nil {
				t.Fatal(err)
			}
			if got.Width > w {
				t.Errorf("query %d: chose %s at width %d, %s has %d", i, got.Order, got.Width, h, w)
			}
			if got.Order == OrderMCS && got.Plan != mcs.Plan {
				t.Errorf("query %d: MCS won but the plan is not the one given", i)
			}
		}
		if got.Width < mcs.Width {
			improved++
		}
		want, err := engine.Exec(mcsPlan, db, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Exec(got.Plan, db, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Rel.Equal(want.Rel) {
			t.Errorf("query %d: %s plan's answer differs from the MCS plan's", i, got.Order)
		}
	}
	if improved == 0 {
		t.Error("no query on which min-fill or min-degree beats MCS: the test exercises nothing")
	}
}

// TestNarrowestBucketEliminationNeverWiderThanEarlyProjection is the
// paper's Theorems 1–2 on the texts a router sends to a plan: on the four
// Figure 6–9 families at orders 4–20 and on random 3-COLOR graphs of order
// 9–25 at densities 1.5–4, Boolean and with 10–50 % of their vertices free,
// the narrowest bucket-elimination plan is never wider than early
// projection's. It is what lets one plan tier serve every width early
// projection was once kept for.
func TestNarrowestBucketEliminationNeverWiderThanEarlyProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var graphs []*graph.Graph
	for _, gen := range []func(int) *graph.Graph{graph.AugmentedPath, graph.Ladder, graph.AugmentedLadder, graph.AugmentedCircularLadder} {
		for order := 4; order <= 20; order++ {
			graphs = append(graphs, gen(order))
		}
	}
	for order := 9; order <= 25; order++ {
		for _, density := range []float64{1.5, 2, 2.5, 3, 3.5, 4} {
			g, err := graph.RandomDensity(order, density, rng)
			if err != nil {
				t.Fatal(err)
			}
			graphs = append(graphs, g)
		}
	}
	texts, narrower := 0, 0
	for _, g := range graphs {
		for _, frac := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5} {
			free := instance.BooleanFree(g)
			if frac > 0 {
				free = instance.ChooseFree(instance.EdgeVertices(g), frac, rng)
			}
			q, err := instance.ColorQuery(g, free)
			if err != nil {
				t.Fatal(err)
			}
			ep, err := EarlyProjection(q)
			if err != nil {
				t.Fatal(err)
			}
			mcs, err := BucketElimination(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			be, err := NarrowestBucketElimination(q, NewCandidate(mcs, OrderMCS))
			if err != nil {
				t.Fatal(err)
			}
			texts++
			switch epWidth := plan.Analyze(ep).Width; {
			case be.Width > epWidth:
				t.Errorf("%v free %v: bucket elimination (%s) is width %d, early projection %d", g, free, be.Order, be.Width, epWidth)
			case be.Width < epWidth && epWidth >= 4 && epWidth <= 6:
				narrower++
			}
		}
	}
	if texts != 1020 || narrower == 0 {
		t.Errorf("%d texts, %d of width 4–6 narrowed: want 1020, and some narrowed", texts, narrower)
	}
}

func TestPlanOrderNamesBuildPlansOrder(t *testing.T) {
	for m, want := range map[Method]OrderHeuristic{
		MethodStraightforward: OrderListed, MethodEarlyProjection: OrderListed, MethodStream: OrderListed,
		MethodReordering: OrderGreedy, MethodBucketElimination: OrderMCS, MethodWCOJ: OrderMCS, MethodYannakakis: OrderMCS,
	} {
		if got := PlanOrder(m); got != want {
			t.Errorf("PlanOrder(%s) = %s, want %s", m, got, want)
		}
	}
}
