package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/cqparse"
	"projpush/internal/engine"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/jointree"
	"projpush/internal/plan"
	"projpush/internal/relation"
	"projpush/internal/resilience"
)

// routeCase is one query of the routing tests' pool.
type routeCase struct {
	name string
	q    *cq.Query
}

// shapePool builds the routing tests' and the routing matrix's queries
// over one database: the 3-COLOR edge relation and a random binary
// relation e of edgeRows rows over edgeDom values. The cyclic shapes —
// triangle and 4-cycle over e, K4–K6, wheels, random 3-COLOR queries of
// order 16–20 at densities 2–4 — are always there; variants adds what the
// tests want and the matrix does not: the Figure 6–9 families at orders
// 5–40, and at orders 5 and 10 with 20 % of their vertices free, a second
// free variable on the triangle, 1–4 free variables on the random graphs
// and half of them on those of order 16, and two more triangles — over
// relations of unequal size (e, e2, e3) and with an empty relation (e0).
// The free-variable variants are what keeps every tier of the cascade
// below the size-only rule reachable.
func shapePool(t testing.TB, seed int64, edgeRows, edgeDom int, variants bool) ([]routeCase, cq.Database) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := instance.ColorDatabase(3)
	e := relation.New([]relation.Attr{0, 1})
	for e.Len() < edgeRows {
		e.Add(relation.Tuple{relation.Value(rng.Intn(edgeDom)), relation.Value(rng.Intn(edgeDom))})
	}
	db["e"] = e

	var pool []routeCase
	cycle := func(name string, n int, free ...cq.Var) {
		q := &cq.Query{Free: free}
		for i := 0; i < n; i++ {
			q.Atoms = append(q.Atoms, cq.Atom{Rel: "e", Args: []cq.Var{cq.Var(i), cq.Var((i + 1) % n)}})
		}
		pool = append(pool, routeCase{name, q})
	}
	color := func(name string, g *graph.Graph, free []cq.Var) {
		q, err := instance.ColorQuery(g, free)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, routeCase{name, q})
	}
	cycle("triangle", 3, 0)
	if variants {
		cycle("triangle/x,y", 3, 0, 1)
		// Their own generator: the random graphs below stay the ones the
		// shared rng has always drawn.
		own := rand.New(rand.NewSource(seed + 1))
		for _, r := range []struct {
			name string
			rows int
		}{{"e2", edgeRows / 3}, {"e3", edgeRows / 6}, {"e0", 0}} {
			rel := relation.New([]relation.Attr{0, 1})
			for rel.Len() < r.rows {
				rel.Add(relation.Tuple{relation.Value(own.Intn(edgeDom)), relation.Value(own.Intn(edgeDom))})
			}
			db[r.name] = rel
		}
		for _, c := range [][2]string{{"triangle/unequal", "e3"}, {"triangle/empty", "e0"}} {
			pool = append(pool, routeCase{c[0], &cq.Query{Free: []cq.Var{0}, Atoms: []cq.Atom{
				{Rel: "e", Args: []cq.Var{0, 1}}, {Rel: "e2", Args: []cq.Var{1, 2}}, {Rel: c[1], Args: []cq.Var{2, 0}},
			}}})
		}
	}
	cycle("cycle4", 4, 0)
	for _, n := range []int{4, 5, 6} {
		g := graph.Complete(n)
		color(fmt.Sprintf("K%d", n), g, instance.BooleanFree(g))
	}
	for _, n := range []int{7, 12} {
		g := graph.Wheel(n)
		color(fmt.Sprintf("wheel-%d", n), g, instance.BooleanFree(g))
	}
	if variants {
		for _, f := range []struct {
			name string
			gen  func(int) *graph.Graph
		}{
			{"augpath", graph.AugmentedPath}, {"ladder", graph.Ladder},
			{"augladder", graph.AugmentedLadder}, {"augcircladder", graph.AugmentedCircularLadder},
		} {
			for _, order := range []int{5, 10, 20, 40} {
				g := f.gen(order)
				color(fmt.Sprintf("%s-%d", f.name, order), g, instance.BooleanFree(g))
			}
		}
		// The paper's 20 % free variables: all but ladder-5's span the
		// widest bag or are acyclic, so the cascade keeps them.
		own := rand.New(rand.NewSource(seed + 2))
		for _, f := range []struct {
			name string
			gen  func(int) *graph.Graph
		}{
			{"augpath", graph.AugmentedPath}, {"ladder", graph.Ladder},
			{"augladder", graph.AugmentedLadder}, {"augcircladder", graph.AugmentedCircularLadder},
		} {
			for _, order := range []int{5, 10} {
				g := f.gen(order)
				color(fmt.Sprintf("%s-%d/20%%", f.name, order), g, instance.ChooseFree(instance.EdgeVertices(g), 0.2, own))
			}
		}
	}
	maxFree := 0
	if variants {
		maxFree = 4
	}
	for _, order := range []int{16, 18, 19, 20} {
		for density := 2; density <= 4; density++ {
			for nfree := 0; nfree <= maxFree; nfree++ {
				g, err := graph.Random(order, density*order, rng)
				if err != nil {
					t.Fatal(err)
				}
				name, free := fmt.Sprintf("random-%d-d%d", order, density), instance.BooleanFree(g)
				if nfree > 0 {
					vs := instance.EdgeVertices(g)
					rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
					name, free = fmt.Sprintf("%s/%d", name, nfree), vs[:nfree]
				}
				color(name, g, free)
			}
		}
	}
	if variants {
		// Half the variables of the order-16 graphs free: they span the
		// widest bag, the width is over the agm tier's floor and the output
		// bound under 2^24, so the cascade's agm tier takes them.
		for _, c := range pool {
			if name, ok := strings.CutPrefix(c.name, "random-16-"); ok && !strings.Contains(name, "/") {
				vars := c.q.Vars()
				q := &cq.Query{Atoms: c.q.Atoms, Free: append([]cq.Var(nil), vars[:len(vars)/2]...)}
				pool = append(pool, routeCase{fmt.Sprintf("%s/%d", c.name, len(q.Free)), q})
			}
		}
	}
	// The text form renumbers variables; keep the query the server reads.
	for i, c := range pool {
		file, err := cqparse.ParseWith(strings.NewReader(textOf(t, c.q)), db)
		if err != nil {
			t.Fatal(err)
		}
		pool[i].q = file.Query
	}
	return pool, db
}

// routePool is the tests' pool: every shape and variant over a small e,
// so the backtracking oracle can answer the triangle and the 4-cycle.
func routePool(t testing.TB) ([]routeCase, cq.Database) {
	return shapePool(t, 3, 300, 40, true)
}

// routed compiles a methodless request for an already parsed query, as
// compile does after the parse, and returns what would execute.
func routed(t testing.TB, s *Server, q *cq.Query, db cq.Database) (core.Method, core.Candidate, *Verdict) {
	t.Helper()
	c := s.build(q, db, "")
	if c.status != "" {
		t.Fatalf("compile: %s: %s", c.status, c.err)
	}
	return c.method, c.chosen, c.verdict
}

// noGain reports whether a verdict is one the size-only rule's no-gain arm
// claims: the whole query's bound within the widest bag's, and the
// leapfrog join ran.
func noGain(v *Verdict) bool {
	return v.Method == string(core.MethodWCOJ) && v.BagAGMLog2 != nil && v.AGMLog2 <= *v.BagAGMLog2
}

// TestRouteTable pins where the router sends every shape of the pool: the
// route, its reason and, on the two plan tiers, the executed plan's order
// and width. The thresholds are constants and the cascade's order is
// fixed, so a change to either shows up here as a diff.
func TestRouteTable(t *testing.T) {
	want := map[string]string{
		"triangle":             "wcoj no_gain_from_decomposition",
		"triangle/x,y":         "wcoj no_gain_from_decomposition",
		"triangle/unequal":     "wcoj no_gain_from_decomposition",
		"triangle/empty":       "wcoj no_gain_from_decomposition",
		"cycle4":               "wcoj no_gain_from_decomposition",
		"K4":                   "wcoj no_gain_from_decomposition",
		"K5":                   "wcoj no_gain_from_decomposition",
		"K6":                   "wcoj no_gain_from_decomposition",
		"wheel-7":              "wcoj free_vars_under_bag",
		"wheel-12":             "wcoj free_vars_under_bag",
		"augpath-5":            "yannakakis narrow",
		"augpath-10":           "yannakakis narrow",
		"augpath-20":           "yannakakis narrow",
		"augpath-40":           "yannakakis narrow",
		"ladder-5":             "wcoj free_vars_under_bag",
		"ladder-10":            "wcoj free_vars_under_bag",
		"ladder-20":            "wcoj free_vars_under_bag",
		"ladder-40":            "wcoj free_vars_under_bag",
		"augladder-5":          "wcoj free_vars_under_bag",
		"augladder-10":         "wcoj free_vars_under_bag",
		"augladder-20":         "wcoj free_vars_under_bag",
		"augladder-40":         "wcoj free_vars_under_bag",
		"augcircladder-5":      "wcoj free_vars_under_bag",
		"augcircladder-10":     "wcoj free_vars_under_bag",
		"augcircladder-20":     "wcoj free_vars_under_bag",
		"augcircladder-40":     "wcoj free_vars_under_bag",
		"augpath-5/20%":        "yannakakis narrow",
		"augpath-10/20%":       "bucketelimination default mcs/5",
		"ladder-5/20%":         "wcoj free_vars_under_bag",
		"ladder-10/20%":        "bucketelimination default mindegree/5",
		"augladder-5/20%":      "bucketelimination default mindegree/4",
		"augladder-10/20%":     "bucketelimination default mcs/8",
		"augcircladder-5/20%":  "bucketelimination default mcs/6",
		"augcircladder-10/20%": "bucketelimination default minfill/9",
		"random-16-d2":         "wcoj free_vars_under_bag",
		"random-16-d2/1":       "wcoj free_vars_under_bag",
		"random-16-d2/2":       "wcoj free_vars_under_bag",
		"random-16-d2/3":       "wcoj free_vars_under_bag",
		"random-16-d2/4":       "bucketelimination default mcs/7",
		"random-16-d3":         "wcoj free_vars_under_bag",
		"random-16-d3/1":       "wcoj free_vars_under_bag",
		"random-16-d3/2":       "wcoj free_vars_under_bag",
		"random-16-d3/3":       "wcoj free_vars_under_bag",
		"random-16-d3/4":       "wcoj free_vars_under_bag",
		"random-16-d4":         "wcoj free_vars_under_bag",
		"random-16-d4/1":       "wcoj free_vars_under_bag",
		"random-16-d4/2":       "wcoj free_vars_under_bag",
		"random-16-d4/3":       "wcoj free_vars_under_bag",
		"random-16-d4/4":       "wcoj free_vars_under_bag",
		"random-18-d2":         "wcoj free_vars_under_bag",
		"random-18-d2/1":       "wcoj free_vars_under_bag",
		"random-18-d2/2":       "wcoj free_vars_under_bag",
		"random-18-d2/3":       "wcoj free_vars_under_bag",
		"random-18-d2/4":       "bucketelimination default minfill/7",
		"random-18-d3":         "wcoj free_vars_under_bag",
		"random-18-d3/1":       "wcoj free_vars_under_bag",
		"random-18-d3/2":       "wcoj free_vars_under_bag",
		"random-18-d3/3":       "wcoj free_vars_under_bag",
		"random-18-d3/4":       "wcoj free_vars_under_bag",
		"random-18-d4":         "wcoj free_vars_under_bag",
		"random-18-d4/1":       "wcoj free_vars_under_bag",
		"random-18-d4/2":       "wcoj free_vars_under_bag",
		"random-18-d4/3":       "wcoj free_vars_under_bag",
		"random-18-d4/4":       "wcoj free_vars_under_bag",
		"random-19-d2":         "wcoj free_vars_under_bag",
		"random-19-d2/1":       "wcoj free_vars_under_bag",
		"random-19-d2/2":       "wcoj free_vars_under_bag",
		"random-19-d2/3":       "wcoj free_vars_under_bag",
		"random-19-d2/4":       "bucketelimination default mcs/7",
		"random-19-d3":         "wcoj free_vars_under_bag",
		"random-19-d3/1":       "wcoj free_vars_under_bag",
		"random-19-d3/2":       "wcoj free_vars_under_bag",
		"random-19-d3/3":       "wcoj free_vars_under_bag",
		"random-19-d3/4":       "wcoj free_vars_under_bag",
		"random-19-d4":         "wcoj free_vars_under_bag",
		"random-19-d4/1":       "wcoj free_vars_under_bag",
		"random-19-d4/2":       "wcoj free_vars_under_bag",
		"random-19-d4/3":       "wcoj free_vars_under_bag",
		"random-19-d4/4":       "wcoj free_vars_under_bag",
		"random-20-d2":         "wcoj free_vars_under_bag",
		"random-20-d2/1":       "wcoj free_vars_under_bag",
		"random-20-d2/2":       "wcoj free_vars_under_bag",
		"random-20-d2/3":       "bucketelimination default minfill/7",
		"random-20-d2/4":       "wcoj free_vars_under_bag",
		"random-20-d3":         "wcoj free_vars_under_bag",
		"random-20-d3/1":       "wcoj free_vars_under_bag",
		"random-20-d3/2":       "wcoj free_vars_under_bag",
		"random-20-d3/3":       "wcoj free_vars_under_bag",
		"random-20-d3/4":       "wcoj free_vars_under_bag",
		"random-20-d4":         "wcoj free_vars_under_bag",
		"random-20-d4/1":       "wcoj free_vars_under_bag",
		"random-20-d4/2":       "wcoj free_vars_under_bag",
		"random-20-d4/3":       "wcoj free_vars_under_bag",
		"random-20-d4/4":       "wcoj free_vars_under_bag",
		"random-16-d2/8":       "wcoj agm",
		"random-16-d3/8":       "wcoj agm",
		"random-16-d4/8":       "wcoj agm",
	}
	pool, db := routePool(t)
	if len(pool) != len(want) {
		t.Errorf("pool has %d shapes, the table %d", len(pool), len(want))
	}
	s := New(Config{DB: db})
	for _, c := range pool {
		b := s.build(c.q, db, "")
		if b.status != "" {
			t.Fatalf("%s: %s: %s", c.name, b.status, b.err)
		}
		got := string(b.method) + " " + b.reason
		if runsPlan(b.method) {
			got += fmt.Sprintf(" %s/%d", b.chosen.Order, b.chosen.Width)
		}
		if got != want[c.name] {
			t.Errorf("%s: routed %q, the table says %q", c.name, got, want[c.name])
		}
	}
}

// mcsCandidate is what a methodless request's admission measures and route
// starts from: the MCS bucket-elimination plan.
func mcsCandidate(t testing.TB, q *cq.Query) core.Candidate {
	t.Helper()
	p, err := core.BuildPlan(core.MethodBucketElimination, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewCandidate(p, core.OrderMCS)
}

// TestNoGainTierTable pins which shapes the size-only rule takes, by which
// arm, and that it takes nothing else. The no-gain arm takes the triangles
// (both free-variable sets, unequal relations, an empty one), the 4-cycle
// and K4–K6. The free-variable arm takes every other cyclic shape whose
// free variables some bag's existential part outweighs: the cyclic Figure
// 6–9 families and the wheels, Boolean, and most random graphs. Everything
// else — the acyclic queries, whose bounds are not computed, and the
// cyclic ones whose free variables span the widest bag — gets the route
// and the plan the cascade below the rule gives it.
func TestNoGainTierTable(t *testing.T) {
	pool, db := routePool(t)
	takes := map[string]bool{
		"triangle": true, "triangle/x,y": true, "triangle/unequal": true, "triangle/empty": true,
		"cycle4": true, "K4": true, "K5": true, "K6": true,
	}
	// Where the rule sends the Boolean structured shapes.
	structured := map[string]core.Method{
		"augpath": core.MethodYannakakis, "ladder": core.MethodWCOJ, "augladder": core.MethodWCOJ,
		"augcircladder": core.MethodWCOJ, "wheel": core.MethodWCOJ,
	}
	taken, freeArm, below := 0, 0, 0
	for _, c := range pool {
		inHand := mcsCandidate(t, c.q)
		v := assess(analyze(t, c.q), inHand.Plan, "bucketelimination", 0, 0, 0, true, db)
		method, chosen, reason, err := route("", c.q, inHand, v)
		if err != nil {
			t.Fatal(err)
		}
		// The union-find test agrees with GYO.
		if jointree.IsAcyclic(c.q) != (v.BagAGMLog2 == nil && v.FreeAGMLog2 == nil) {
			t.Errorf("%s: acyclic %v, yet bounds bag %v free %v", c.name, jointree.IsAcyclic(c.q), v.BagAGMLog2, v.FreeAGMLog2)
		}
		family, _, _ := strings.Cut(c.name, "-")
		if want, ok := structured[family]; ok && !strings.Contains(c.name, "/") && method != want {
			t.Errorf("%s: route %s, want %s", c.name, method, want)
		}
		if takes[c.name] {
			taken++
			if method != core.MethodWCOJ || reason != "no_gain_from_decomposition" || v.FreeAGMLog2 != nil {
				t.Errorf("%s: route %s (%s), want wcoj by the no-gain arm (agm %.2f, bag %v)",
					c.name, method, reason, v.AGMLog2, v.BagAGMLog2)
			}
			continue
		}
		if reason == "free_vars_under_bag" {
			freeArm++
			if method != core.MethodWCOJ || *v.FreeAGMLog2 >= *v.BagAGMLog2 || v.AGMLog2 <= *v.BagAGMLog2 {
				t.Errorf("%s: route %s (%s) with agm %.2f, bag %.2f, free %.2f",
					c.name, method, reason, v.AGMLog2, *v.BagAGMLog2, *v.FreeAGMLog2)
			}
			continue
		}
		// The cascade alone.
		below++
		wantMethod, wantReason := cascade(v)
		wantChosen := inHand
		if runsPlan(wantMethod) {
			if wantChosen, err = core.NarrowestBucketElimination(c.q, inHand); err != nil {
				t.Fatal(err)
			}
		}
		if method != wantMethod || reason != wantReason || FingerprintID(chosen.Plan) != FingerprintID(wantChosen.Plan) {
			t.Errorf("%s: route %s (%s), the cascade gives %s (%s)", c.name, method, reason, wantMethod, wantReason)
		}
		if reason == "no_gain_from_decomposition" || reason == "named" {
			t.Errorf("%s: reason %q", c.name, reason)
		}
	}
	if taken != len(takes) || freeArm == 0 || below == 0 {
		t.Errorf("pool has %d of the %d shapes the no-gain arm takes, %d the free-variable arm takes, %d for the cascade",
			taken, len(takes), freeArm, below)
	}
	// A request that names a method is not routed.
	if m, _, reason, _ := route(core.MethodStream, pool[0].q, core.Candidate{}, &Verdict{}); m != core.MethodStream || reason != "named" {
		t.Errorf("named stream request routed to %s (%s)", m, reason)
	}
}

// TestExecutedPlanNeverWiderThanAdmitted pins the admission hole this
// closes: assess measured the admitted plan against -maxwidth and a plan
// tier once ran the early-projection plan, whatever its width. Every shape
// goes through the plan its route executes and through the default tier's
// choice, whichever route it lands on, and neither is wider than what
// admission measured or than early projection, the plan the stream tier
// ran at widths 4–6 before it folded into the default tier.
func TestExecutedPlanNeverWiderThanAdmitted(t *testing.T) {
	pool, db := routePool(t)
	s := New(Config{DB: db})
	narrowed := 0
	for _, c := range pool {
		method, chosen, v := routed(t, s, c.q, db)
		ep, err := core.EarlyProjection(c.q)
		if err != nil {
			t.Fatal(err)
		}
		epWidth := plan.Analyze(ep).Width
		check := func(tier string, cand core.Candidate) {
			if err := plan.Validate(cand.Plan, c.q); err != nil {
				t.Fatalf("%s %s: %v", tier, c.name, err)
			}
			w := plan.Analyze(cand.Plan).Width
			if w != cand.Width {
				t.Errorf("%s %s: candidate says width %d, plan has %d", tier, c.name, cand.Width, w)
			}
			if w > v.PlanWidth || w > epWidth {
				t.Errorf("%s %s: executes width %d, admission measured %d, early projection has %d", tier, c.name, w, v.PlanWidth, epWidth)
			}
		}
		cand, err := core.NarrowestBucketElimination(c.q, mcsCandidate(t, c.q))
		if err != nil {
			t.Fatal(err)
		}
		check("default tier", cand)
		if !runsPlan(method) {
			continue
		}
		check(string(method), chosen)
		// Before the tier chose, it ran the MCS plan.
		parent, err := core.BuildPlan(method, c.q, nil)
		if err != nil {
			t.Fatal(err)
		}
		switch pw := plan.Analyze(parent).Width; {
		case chosen.Width < pw:
			narrowed++
		case chosen.Width == pw:
			// A tie keeps the parent's plan, byte for byte.
			got := plan.Fingerprint(chosen.Plan)
			want := plan.Fingerprint(parent)
			if got != want || chosen.Order != core.PlanOrder(method) {
				t.Errorf("%s: route %s ties at width %d but the plan changed (order %s)", c.name, method, chosen.Width, chosen.Order)
			}
		}
	}
	if narrowed == 0 {
		t.Error("no routed plan narrowed: the default tier's choice is not exercised")
	}
}

// TestStructuredPlansUnchanged: on the Boolean Figure 6–9 families, the
// wheels and K4–K6 no candidate is strictly narrower, so the plan tier the
// cascade gives them keeps the plan (and the fingerprint) it ran before
// there was a choice. The size-only rule now routes the cyclic ones to the
// leapfrog join, so each goes through the cascade alone.
func TestStructuredPlansUnchanged(t *testing.T) {
	pool, db := routePool(t)
	unchanged := 0
	for _, c := range pool {
		if strings.HasPrefix(c.name, "random") || strings.Contains(c.name, "/") {
			continue
		}
		inHand := mcsCandidate(t, c.q)
		v := assess(analyze(t, c.q), inHand.Plan, "bucketelimination", 0, 0, 0, true, db)
		method, _ := cascade(v)
		if !runsPlan(method) {
			continue
		}
		chosen, err := core.NarrowestBucketElimination(c.q, inHand)
		if err != nil {
			t.Fatal(err)
		}
		parent, err := core.BuildPlan(method, c.q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if FingerprintID(chosen.Plan) != FingerprintID(parent) {
			t.Errorf("%s: route %s runs a plan other than core.BuildPlan(%s)", c.name, method, method)
		}
		unchanged++
	}
	if unchanged == 0 {
		t.Error("no structured query reached a plan-executing tier")
	}
}

func textOf(t testing.TB, q *cq.Query) string {
	t.Helper()
	var buf bytes.Buffer
	if err := cqparse.WriteQuery(&buf, q); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestTiersAnswerLikeTheOracle sends the pool through the server, which
// reaches every tier, and every shape through the default tier's choice
// run as the route runs it (resilience.Routed), and compares each answer
// with the backtracking oracle, or with the MCS bucket-elimination plan
// where the oracle's search space (the structured families at orders
// 10–40) is out of reach.
func TestTiersAnswerLikeTheOracle(t *testing.T) {
	pool, db := routePool(t)
	want := make([]*relation.Relation, len(pool))
	for i, c := range pool {
		q := c.q
		var rel *relation.Relation
		var err error
		if q.NumVars() <= 20 {
			rel, err = engine.EvalOracle(q, db)
		} else {
			var p plan.Node
			if p, err = core.BuildPlan(core.MethodBucketElimination, q, nil); err == nil {
				var res *engine.Result
				if res, err = engine.Exec(p, db, engine.Options{}); err == nil {
					rel = res.Rel
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rel
	}
	_, addr := startServer(t, Config{DB: db})
	routes := map[string]int{}
	for i, c := range pool {
		resp := roundTrip(t, addr, &Request{Op: "query", Query: textOf(t, c.q)})
		if resp.Status != StatusOK {
			t.Fatalf("%s: status %s (%s)", c.name, resp.Status, resp.Error)
		}
		// Column order is the executed plan's: compare as relations.
		attrs := make([]relation.Attr, len(resp.Answer.Attrs))
		for j, a := range resp.Answer.Attrs {
			attrs[j] = relation.Attr(a)
		}
		got := relation.New(attrs)
		for _, row := range resp.Answer.Tuples {
			tuple := make(relation.Tuple, len(row))
			for j, v := range row {
				tuple[j] = relation.Value(v)
			}
			got.Add(tuple)
		}
		if got.Len() != resp.Answer.Rows || !got.Equal(want[i]) {
			t.Errorf("%s (route %s): %d rows %v, reference has %d", c.name,
				resp.Verdict.Method, resp.Answer.Rows, resp.Answer.Tuples, want[i].Len())
		}
		route := resp.Verdict.Method
		if noGain(resp.Verdict) {
			route = "no_gain"
		}
		routes[route]++
	}
	// The four triangles, the 4-cycle and K4–K6 reach the no-gain arm;
	// every other route answers something too: the free-variable
	// variants reach the default tier.
	if routes["no_gain"] < 8 || len(routes) != 4 {
		t.Errorf("answers by route %v: want every route, and at least 8 from the no-gain arm", routes)
	}
	for i, c := range pool {
		cand, err := core.NarrowestBucketElimination(c.q, mcsCandidate(t, c.q))
		if err != nil {
			t.Fatal(err)
		}
		strategy, _ := resilience.Routed(core.MethodBucketElimination, analyze(t, c.q), cand.Plan)
		res, err := strategy.Run(context.Background(), db, engine.Options{})
		if err != nil {
			t.Fatalf("%s on the default tier: %v", c.name, err)
		}
		if !res.Rel.Equal(want[i]) {
			t.Errorf("%s on the default tier (%s/%d): %d rows, reference has %d", c.name,
				cand.Order, cand.Width, res.Rel.Len(), want[i].Len())
		}
	}
}

// withK4 is g with a K4 hung off vertex at: three new vertices, adjacent
// to each other and to at. However narrow g is, it has no 3-coloring.
func withK4(g *graph.Graph, at int) *graph.Graph {
	h := graph.New(g.N + 3)
	for _, e := range g.Edges {
		h.AddEdge(e[0], e[1])
	}
	k4 := []int{at, g.N, g.N + 1, g.N + 2}
	for i, u := range k4 {
		for _, v := range k4[i+1:] {
			h.AddEdge(u, v)
		}
	}
	return h
}

// TestFreeVarRouteWithoutWitness: the free-variable arm's premise is that
// the leapfrog join's existential levels stop at a first witness. On the
// Boolean 3-COLOR query of a ladder with a K4 at its far end there is
// none, and the join, which memoizes nothing, backtracks through the
// ladder's colorings before the K4 refutes each (3^n; 0.9 s at 12 rungs,
// where the full reducer takes 0.25 ms). The route runs it under the
// decomposition plan's bound and then the cascade's own pick: the request
// degrades to the full reducer, answers what it answers, and the join's
// detour is bounded where, without the budget, a hundred times that
// budget would not finish it.
func TestFreeVarRouteWithoutWitness(t *testing.T) {
	db := instance.ColorDatabase(3)
	g := withK4(graph.Ladder(40), 39) // the far end of the left rail
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	s, addr := startServer(t, Config{DB: db})
	c := s.build(q, db, "")
	if c.status != "" || c.reason != "free_vars_under_bag" {
		t.Fatalf("route %s (%s), status %q; want wcoj (free_vars_under_bag)", c.method, c.reason, c.status)
	}
	behind, _ := cascade(c.verdict)
	parent, _ := resilience.Routed(behind, c.structure, nil)
	want, err := parent.Run(context.Background(), db, engine.Options{})
	if err != nil || behind != core.MethodYannakakis {
		t.Fatalf("cascade %s: %v", behind, err)
	}
	resp := roundTrip(t, addr, &Request{Op: "query", Query: textOf(t, q)})
	if resp.Status != StatusDegraded || resp.Answer.Nonempty || want.Rel.Len() != 0 {
		t.Fatalf("status %s (%s), nonempty %v, cascade rows %d; want degraded, empty, 0",
			resp.Status, resp.Error, resp.Answer.Nonempty, want.Rel.Len())
	}
	at := resp.Stats.Attempts
	if len(at) != 2 || at[0].Method != string(core.MethodWCOJ) || !strings.Contains(at[0].Err, engine.ErrWorkLimit.Error()) ||
		at[1].Method != string(behind) || at[1].Err != "" {
		t.Errorf("attempts %+v; want wcoj over its step budget, then %s", at, behind)
	}
	steps := int64(100 * math.Exp2(*c.verdict.PlanAGMLog2))
	if _, err := engine.NewWCOJ(c.structure, steps).Run(context.Background(), db, engine.Options{}); !errors.Is(err, engine.ErrWorkLimit) {
		t.Errorf("leapfrog finished within %d seeks (%v): the instance does not show the blow-up", steps, err)
	}
}

// TestSpentBudgetRunsLeapfrogOnce: when the free-variable route's
// leapfrog join spends its budget and the cascade's bucket-elimination
// plan fails too, the ladder goes on down the plan rungs; it does not run
// the leapfrog join a second time, unbudgeted. The augmented circular
// ladder of order 5 with a K4 hung off a vertex is Boolean, of width 4
// and has no witness; a row cap of 10 fails every plan over it.
func TestSpentBudgetRunsLeapfrogOnce(t *testing.T) {
	db := instance.ColorDatabase(3)
	g := withK4(graph.AugmentedCircularLadder(5), 0)
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	s, addr := startServer(t, Config{DB: db, MaxRows: 10})
	c := s.build(q, db, "")
	if behind, _ := cascade(c.verdict); c.reason != "free_vars_under_bag" || behind != core.MethodBucketElimination {
		t.Fatalf("route %s (%s), cascade %s; want wcoj (free_vars_under_bag) over bucketelimination", c.method, c.reason, behind)
	}
	resp := roundTrip(t, addr, &Request{Op: "query", Query: textOf(t, q)})
	if resp.Stats == nil {
		t.Fatalf("status %s (%s): no stats", resp.Status, resp.Error)
	}
	at := resp.Stats.Attempts
	leapfrog := 0
	for _, a := range at {
		if a.Method == string(core.MethodWCOJ) {
			leapfrog++
		}
	}
	if len(at) < 2 || !strings.Contains(at[0].Err, engine.ErrWorkLimit.Error()) ||
		at[1].Method != string(core.MethodBucketElimination) || at[1].Err == "" || leapfrog != 1 {
		t.Errorf("attempts %+v; want wcoj over its budget, bucketelimination failing, and no second wcoj", at)
	}
}

// TestExplainAndLogShowTheExecutedPlan: explain opens with the route and
// why it was taken, then renders the plan route chose, and the request log
// carries the reason and the plan's width and order, on a query per
// plan-executing tier whose plan the choice changed; the full reducer and
// the leapfrog join execute no plan and log neither, and a query either
// arm of the size-only rule took shows the bounds it compared in both
// places.
func TestExplainAndLogShowTheExecutedPlan(t *testing.T) {
	pool, db := routePool(t)
	var log bytes.Buffer
	s, addr := startServer(t, Config{DB: db, Log: &log})
	// One query per route_reason, each of a route below.
	reasons := map[string]core.Method{
		"narrow": core.MethodYannakakis, "no_gain_from_decomposition": core.MethodWCOJ,
		"free_vars_under_bag": core.MethodWCOJ, "default": core.MethodBucketElimination,
	}
	seen := map[string]bool{}
	for _, c := range pool {
		method, chosen, v := routed(t, s, c.q, db)
		changed := map[core.Method]bool{
			core.MethodYannakakis:        true,
			core.MethodWCOJ:              true,
			core.MethodBucketElimination: chosen.Order != core.OrderMCS,
		}
		log.Reset()
		resp := roundTrip(t, addr, &Request{Op: "explain", Query: textOf(t, c.q)})
		if resp.Status != StatusOK {
			t.Fatalf("%s: explain status %s (%s)", c.name, resp.Status, resp.Error)
		}
		var entry map[string]any
		if err := json.Unmarshal(bytes.TrimSpace(log.Bytes()), &entry); err != nil {
			t.Fatalf("%s: log line %q: %v", c.name, log.String(), err)
		}
		reason, _ := entry["route_reason"].(string)
		if seen[reason] || reasons[reason] != method || !changed[method] {
			continue
		}
		seen[reason] = true
		line, body, _ := strings.Cut(resp.Explain, "\n")
		if !strings.HasPrefix(line, fmt.Sprintf("route: %s (%s)", method, reason)) {
			t.Errorf("%s: explain opens with %q, want route %s (%s)", c.name, line, method, reason)
		}
		var want string
		var err error
		switch method {
		case core.MethodYannakakis, core.MethodWCOJ:
			if entry["order"] != nil || entry["plan_width"] != nil {
				t.Errorf("%s: route %s executes no plan, yet the log names one: %v", c.name, method, entry)
			}
			if method == core.MethodWCOJ {
				// The no-gain arm compared the whole bound with the bag's,
				// the free-variable arm the free variables' with the bag's
				// and set the leapfrog join's budget.
				bounds := fmt.Sprintf("agm_log2=%.2f bag_agm_log2=%.2f free_agm_log2=not computed plan_agm_log2=not computed",
					v.AGMLog2, *v.BagAGMLog2)
				free, budget := any(nil), any(nil)
				if reason == "free_vars_under_bag" {
					bounds = fmt.Sprintf("agm_log2=%.2f bag_agm_log2=%.2f free_agm_log2=%.2f plan_agm_log2=%.2f",
						v.AGMLog2, *v.BagAGMLog2, *v.FreeAGMLog2, *v.PlanAGMLog2)
					free, budget = *v.FreeAGMLog2, *v.PlanAGMLog2
				}
				if entry["bag_agm_log2"] != *v.BagAGMLog2 || entry["agm_log2"] != v.AGMLog2 || entry["free_agm_log2"] != free ||
					entry["plan_agm_log2"] != budget || !strings.HasSuffix(line, bounds) {
					t.Errorf("%s: the bounds the %s arm compared (%s) are not in the log %v and the explain %q",
						c.name, reason, bounds, entry, line)
				}
			}
			continue
		default:
			// Both plan tiers run on the pull pipeline, and say so.
			want, err = engine.NewPipeline(chosen.Plan).Explain(db, engine.Options{}, false)
		}
		if err != nil {
			t.Fatal(err)
		}
		if body != want || !strings.HasPrefix(body, skippedHeader) {
			t.Errorf("%s: explain is not the chosen %s plan's on the pipeline:\n%s\nwant:\n%s", c.name, chosen.Order, resp.Explain, want)
		}
		if entry["order"] != string(chosen.Order) || entry["plan_width"] != float64(chosen.Width) {
			t.Errorf("%s: log has order=%v plan_width=%v, executed %s at width %d", c.name, entry["order"], entry["plan_width"], chosen.Order, chosen.Width)
		}

		// A width cap at exactly what admission measured admits the
		// query, and what then runs is within the cap.
		var capped bytes.Buffer
		_, cappedAddr := startServer(t, Config{DB: db, Log: &capped, MaxWidth: v.PlanWidth})
		if resp := roundTrip(t, cappedAddr, &Request{Op: "query", Query: textOf(t, c.q)}); resp.Status != StatusOK {
			t.Fatalf("%s under -maxwidth %d: status %s (%s)", c.name, v.PlanWidth, resp.Status, resp.Error)
		}
		if err := json.Unmarshal(bytes.TrimSpace(capped.Bytes()), &entry); err != nil {
			t.Fatal(err)
		}
		if w, _ := entry["plan_width"].(float64); w == 0 || int(w) > v.PlanWidth {
			t.Errorf("%s under -maxwidth %d: executed plan_width %v", c.name, v.PlanWidth, entry["plan_width"])
		}
	}
	for reason, m := range reasons {
		if !seen[reason] {
			t.Errorf("no pool query exercised route %s (%s)", m, reason)
		}
	}

	// What ran, case by case, from the analyzed explain of the strategy a
	// methodless request executes: a default-tier random graph and a
	// Figure 7 text with 20 % of its variables free skip the sweeps
	// (nothing can reduce 3-COLOR's edge relation) and are the bare
	// pipeline's run; the same ladder over a sparse random relation with
	// one selective rung runs them, and the scans they shrank say by how
	// much.
	byName := map[string]*cq.Query{}
	for _, c := range pool {
		byName[c.name] = c.q
	}
	ladder := byName["ladder-10/20%"]
	selective := &cq.Query{Free: ladder.Free}
	for i, a := range ladder.Atoms {
		a.Rel = "e2"
		if i == 0 {
			a.Rel = "e3"
		}
		selective.Atoms = append(selective.Atoms, a)
	}
	for _, tc := range []struct {
		name   string
		q      *cq.Query
		method core.Method
		swept  bool
	}{
		{"random-18-d2/4", byName["random-18-d2/4"], core.MethodBucketElimination, false},
		{"ladder-10/20%", ladder, core.MethodBucketElimination, false},
		{"ladder-10/20% over e2, one atom over e3", selective, core.MethodBucketElimination, true},
	} {
		c := s.build(tc.q, db, "")
		if c.status != "" || c.method != tc.method {
			t.Fatalf("%s: compiled to status %q route %s, want %s", tc.name, c.status, c.method, tc.method)
		}
		text, err := c.strategy.Explain(db, engine.Options{}, true)
		if err != nil {
			t.Fatal(err)
		}
		header, _, _ := strings.Cut(text, "\n")
		reducedScan := false
		for _, line := range strings.Split(text, "\n") {
			if strings.Contains(line, "(x") && strings.Contains(line, " reduced=") {
				reducedScan = true
			}
		}
		if tc.swept {
			if header != "stream pipeline" || !reducedScan {
				t.Errorf("%s: the sweeps should run and shrink a scan:\n%s", tc.name, text)
			}
			continue
		}
		bare, err := engine.ExecIterator(c.chosen.Plan, db, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if header+"\n" != skippedHeader || reducedScan ||
			!strings.Contains(text, fmt.Sprintf("memory: %d bytes peak live\n", bare.Stats.PeakBytes)) ||
			!strings.Contains(text, "tuples: materialized="+fmt.Sprint(bare.Stats.MaterializedTuples)+" reduced=0\n") {
			t.Errorf("%s: the sweeps should be skipped and the run be the bare pipeline's (peak %d):\n%s",
				tc.name, bare.Stats.PeakBytes, text)
		}
	}

	// A request the ladder rescued logs which rungs it went down, in
	// order; one that answered first time logs none.
	var degraded bytes.Buffer
	_, capAddr := startServer(t, Config{DB: db, Log: &degraded, MaxRows: 2000})
	for _, tc := range []struct {
		method string
		status Status
		rungs  any
	}{
		{string(core.MethodStraightforward), StatusDegraded, []any{"straightforward", "wcoj"}},
		{"", StatusOK, nil},
	} {
		degraded.Reset()
		resp := roundTrip(t, capAddr, &Request{Op: "query", Query: textOf(t, byName["augcircladder-5"]), Method: tc.method})
		var entry map[string]any
		if err := json.Unmarshal(bytes.TrimSpace(degraded.Bytes()), &entry); err != nil {
			t.Fatal(err)
		}
		if resp.Status != tc.status || !reflect.DeepEqual(entry["rungs"], tc.rungs) {
			t.Errorf("method %q: status %s (%s), log has attempts=%v rungs=%v, want %s with rungs %v",
				tc.method, resp.Status, resp.Error, entry["attempts"], entry["rungs"], tc.status, tc.rungs)
		}
	}
}

// skippedHeader opens the explain of a pipeline run whose pushdown phase
// had nothing to do.
const skippedHeader = "stream pipeline (pushdown skipped: no scan can reduce another)\n"
