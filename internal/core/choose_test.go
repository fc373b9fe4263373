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

func TestStreamPlanKeepsEarlyProjectionUnlessStrictlyNarrower(t *testing.T) {
	kept, replaced := 0, 0
	queries := randomColorQueries(t)
	for _, g := range []*graph.Graph{
		graph.AugmentedCircularLadder(5), graph.AugmentedCircularLadder(40),
		graph.Complete(4), graph.Complete(5), graph.Complete(6), graph.AugmentedLadder(8),
	} {
		queries = append(queries, colorQuery(t, g))
	}
	for i, q := range queries {
		be, err := BucketElimination(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		inHand := NewCandidate(be, OrderMCS)
		ep, err := EarlyProjection(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := StreamPlan(q, inHand)
		if err != nil {
			t.Fatal(err)
		}
		epWidth := plan.Analyze(ep).Width
		switch {
		case inHand.Width < epWidth:
			replaced++
			if got.Plan != be || got.Order != OrderMCS || got.Width != inHand.Width {
				t.Errorf("query %d: early projection is width %d, in hand %d, yet chose %s/%d", i, epWidth, inHand.Width, got.Order, got.Width)
			}
		default:
			kept++
			gotFP := plan.Fingerprint(got.Plan)
			wantFP := plan.Fingerprint(ep)
			if got.Order != OrderListed || got.Width != epWidth || gotFP != wantFP {
				t.Errorf("query %d: early projection (width %d) ties or beats the plan in hand (%d), yet chose %s/%d", i, epWidth, inHand.Width, got.Order, got.Width)
			}
		}
	}
	if kept == 0 || replaced == 0 {
		t.Errorf("kept %d, replaced %d: want both branches exercised", kept, replaced)
	}
	if _, err := StreamPlan(&cq.Query{}, Candidate{}); err == nil {
		t.Error("empty query accepted")
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
