package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/cqparse"
	"projpush/internal/engine"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/plan"
	"projpush/internal/relation"
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
// 5–40, a second free variable on the triangle and 1–4 free variables on
// the random graphs.
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

// routed runs a methodless request's admission and routing, as
// handleQuery does, and returns what would execute.
func routed(t testing.TB, s *Server, q *cq.Query, db cq.Database) (core.Method, core.Candidate, *Verdict) {
	t.Helper()
	method := s.cfg.Method
	p, err := core.BuildPlan(method, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := assess(q, p, string(method), s.cfg.MaxWidth, s.cfg.MaxAGMLog2, s.cfg.MaxPredictedBytes, s.cfg.WCOJAGMLog2, -1, db)
	inHand := core.Candidate{Plan: p, Order: core.PlanOrder(method), Width: v.PlanWidth}
	method, chosen, err := s.route(&Request{Op: "query"}, q, method, inHand, v)
	if err != nil {
		t.Fatal(err)
	}
	return method, chosen, v
}

// tierConfigs reach every tier that executes a plan: the default cascade,
// everything forced onto the stream tier, everything forced onto the
// default tier.
func tierConfigs(db cq.Database) map[string]Config {
	return map[string]Config{
		"cascade":      {DB: db},
		"stream-tier":  {DB: db, YannakakisWidth: -1, StreamWidth: 1000},
		"default-tier": {DB: db, YannakakisWidth: -1, StreamWidth: -1, WCOJAGMLog2: -1},
	}
}

// TestExecutedPlanNeverWiderThanAdmitted pins the admission hole this
// closes: assess measured the default method's plan against -maxwidth and
// the stream tier then ran the early-projection plan, whatever its width.
func TestExecutedPlanNeverWiderThanAdmitted(t *testing.T) {
	pool, db := routePool(t)
	narrowedStream, narrowedDefault := 0, 0
	configs := tierConfigs(db)
	// The invariant holds whatever plan method the server defaults to.
	for _, m := range []core.Method{core.MethodStraightforward, core.MethodEarlyProjection, core.MethodReordering} {
		configs[string(m)] = Config{DB: db, YannakakisWidth: -1, Method: m}
	}
	for name, cfg := range configs {
		s := New(cfg)
		for _, c := range pool {
			method, chosen, v := routed(t, s, c.q, db)
			if !runsPlan(method) {
				continue
			}
			if err := plan.Validate(chosen.Plan, c.q); err != nil {
				t.Fatalf("%s %s: %v", name, c.name, err)
			}
			w := plan.Analyze(chosen.Plan).Width
			if w != chosen.Width {
				t.Errorf("%s %s: candidate says width %d, plan has %d", name, c.name, chosen.Width, w)
			}
			if w > v.PlanWidth {
				t.Errorf("%s %s: route %s executes width %d, admission measured %d", name, c.name, method, w, v.PlanWidth)
			}
			if name != "cascade" {
				continue
			}
			// At the parent commit the stream tier ran early projection
			// and the default tier the MCS plan.
			parent, err := core.BuildPlan(method, c.q, nil)
			if err != nil {
				t.Fatal(err)
			}
			switch pw := plan.Analyze(parent).Width; {
			case w < pw && method == core.MethodStream:
				narrowedStream++
			case w < pw:
				narrowedDefault++
			case w == pw:
				// A tie keeps the parent's plan, byte for byte.
				got, _ := plan.Fingerprint(chosen.Plan)
				want, _ := plan.Fingerprint(parent)
				if got != want || chosen.Order != core.PlanOrder(method) {
					t.Errorf("%s: route %s ties at width %d but the plan changed (order %s)", c.name, method, w, chosen.Order)
				}
			}
		}
	}
	if narrowedStream == 0 || narrowedDefault == 0 {
		t.Errorf("narrowed %d stream and %d default plans: want both tiers exercised", narrowedStream, narrowedDefault)
	}
}

// TestStructuredPlansUnchanged: on the Figure 6–9 families and K4–K6 no
// candidate is strictly narrower, so every tier keeps the plan (and the
// fingerprint) it ran before there was a choice.
func TestStructuredPlansUnchanged(t *testing.T) {
	pool, db := routePool(t)
	s := New(Config{DB: db})
	unchanged := 0
	for _, c := range pool {
		if strings.HasPrefix(c.name, "random") {
			continue
		}
		method, chosen, _ := routed(t, s, c.q, db)
		if !runsPlan(method) {
			continue
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

// TestTiersAnswerLikeTheOracle sends the pool through every tier, direct
// and resilient, and compares each answer with the backtracking oracle,
// or with the MCS bucket-elimination plan where the oracle's search
// space (the structured families at orders 10–40) is out of reach.
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
	for name, cfg := range tierConfigs(db) {
		for _, resilient := range []bool{false, true} {
			cfg.Resilient = resilient
			_, addr := startServer(t, cfg)
			for i, c := range pool {
				resp := roundTrip(t, addr, &Request{Op: "query", Query: textOf(t, c.q)})
				if resp.Status != StatusOK {
					t.Fatalf("%s resilient=%v %s: status %s (%s)", name, resilient, c.name, resp.Status, resp.Error)
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
					t.Errorf("%s resilient=%v %s (route %s): %d rows %v, reference has %d", name, resilient, c.name,
						resp.Verdict.Method, resp.Answer.Rows, resp.Answer.Tuples, want[i].Len())
				}
			}
		}
	}
}

// TestExplainAndLogShowTheExecutedPlan: explain renders the plan route
// chose and the request log carries its width and order, on a query per
// plan-executing tier whose plan the choice changed; the full reducer
// executes no plan and logs neither.
func TestExplainAndLogShowTheExecutedPlan(t *testing.T) {
	pool, db := routePool(t)
	var log bytes.Buffer
	s, addr := startServer(t, Config{DB: db, Log: &log})
	seen := map[core.Method]bool{}
	for _, c := range pool {
		method, chosen, v := routed(t, s, c.q, db)
		changed := map[core.Method]bool{
			core.MethodYannakakis:        true,
			core.MethodStream:            chosen.Order == core.OrderMCS,
			core.MethodBucketElimination: chosen.Order != core.OrderMCS,
		}
		if seen[method] || !changed[method] {
			continue
		}
		seen[method] = true
		log.Reset()
		resp := roundTrip(t, addr, &Request{Op: "explain", Query: textOf(t, c.q)})
		if resp.Status != StatusOK {
			t.Fatalf("%s: explain status %s (%s)", c.name, resp.Status, resp.Error)
		}
		var entry map[string]any
		if err := json.Unmarshal(bytes.TrimSpace(log.Bytes()), &entry); err != nil {
			t.Fatalf("%s: log line %q: %v", c.name, log.String(), err)
		}
		var want string
		var err error
		switch method {
		case core.MethodYannakakis:
			if entry["order"] != nil || entry["plan_width"] != nil {
				t.Errorf("%s: the full reducer executes no plan, yet the log names one: %v", c.name, entry)
			}
			continue
		case core.MethodStream:
			want, err = engine.ExplainStream(chosen.Plan, db, engine.Options{}, false)
		default:
			want, err = engine.Explain(chosen.Plan, db, engine.Options{}, false)
		}
		if err != nil {
			t.Fatal(err)
		}
		if resp.Explain != want {
			t.Errorf("%s: explain is not the chosen %s plan's:\n%s\nwant:\n%s", c.name, chosen.Order, resp.Explain, want)
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
	for _, m := range []core.Method{core.MethodYannakakis, core.MethodStream, core.MethodBucketElimination} {
		if !seen[m] {
			t.Errorf("no pool query exercised route %s", m)
		}
	}
}
