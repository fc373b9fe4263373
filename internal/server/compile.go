package server

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/cqparse"
	"projpush/internal/engine"
	"projpush/internal/jointree"
	"projpush/internal/memo"
	"projpush/internal/plan"
	"projpush/internal/resilience"
)

// compiledBudget bounds the bytes the compiled-query memo accounts. It is
// a constant: a compiled query is a few KB to a few hundred, and nothing
// about it is worth tuning.
const compiledBudget = 16 << 20

// compiled is everything about a request that its query text and named
// method decide — the front end's whole output. It is built once, by
// compile, and never written again: requests for the same text share one
// value, from any number of goroutines, and what they execute per request
// (bags, relations, stats) they build themselves.
type compiled struct {
	// status is empty for a query that may run. Otherwise nothing will:
	// the text does not parse, names an unknown method or has no plan
	// (verdict nil), or admission refused it (verdict set).
	status Status
	err    string

	// db is the server's database as the text sees it: shared relations,
	// shadowed by the text's own rel blocks.
	db cq.Database
	// structure is the analysis the verdict, route, strategy and ladder read.
	structure *jointree.Structure
	verdict   *Verdict
	// method is what runs, reason why and chosen the plan it runs where it
	// runs one; strategy runs it and ladder is what a failed run
	// degrades down, built when one first does.
	method   core.Method
	reason   string
	chosen   core.Candidate
	strategy engine.Fallback
	ladder   func() []engine.Fallback
	// log holds the request log's fields that the text decides (fp,
	// method, verdict, route); nil on a server without a log.
	log logFields
}

// compile is the front end: parse, admission plan, verdict, route, the
// executed plan and its strategy, for one query text and named method
// ("" leaves the choice to the server). A text seen before costs one
// lookup — the key is the two strings and nothing else of the request,
// so the op, the timeout a coordinator rewrites per attempt and the
// affinity header all hit. hit reports which it was.
//
// What is kept: every outcome that has a verdict, admitted or not. A text
// that does not parse, or has no plan, is compiled again when it returns;
// so is a text with rel blocks, whose database is its own.
func (s *Server) compile(text, named string) (c *compiled, hit bool) {
	key := memo.Key{Method: named, Text: text}
	if c, ok := s.compiled.Get(key); ok {
		return c, true
	}
	file, err := cqparse.ParseWith(strings.NewReader(text), s.cfg.DB)
	if err != nil {
		return &compiled{status: StatusParseError, err: err.Error()}, false
	}
	c = s.build(file.Query, file.DB, named)
	if c.verdict != nil && file.Rels == 0 {
		s.compiled.Put(key, c, compiledSize(file.Query))
	}
	return c, false
}

// compiledSize estimates the bytes a compiled query keeps reachable: the
// parsed atoms, the structure (join graph, order, decomposition and join
// tree), the admission and executed plans, a leapfrog plan once a run
// builds it, and the log fields all grow with the atom count. Measured on
// the Figure 6–9 families at orders 5–40, methodless and naming bucket
// elimination or the leapfrog join, after one run: 580–830 bytes per atom,
// 720–1050 with a leapfrog plan, the most at order 5, where the fixed part
// weighs most; the text itself is accounted by the memo.
func compiledSize(q *cq.Query) int64 { return 1536 + 760*int64(len(q.Atoms)) }

// admissionPlan is the plan a request is admitted against: the named
// method's, or for a methodless request the bucket-elimination plan under
// the structure's MCS order, which is also what naming bucket elimination
// or the leapfrog join builds. Naming the full reducer gives its join tree
// lowered to a plan.
func admissionPlan(named string, s *jointree.Structure) (plan.Node, error) {
	switch core.Method(named) {
	case "", core.MethodBucketElimination, core.MethodWCOJ:
		return core.BucketEliminationOrder(s.Query, s.Order)
	case core.MethodYannakakis:
		return s.Tree.ToPlan(), nil
	}
	return core.BuildPlan(core.Method(named), s.Query, nil)
}

// build compiles a parsed query: everything compile does after the parse.
func (s *Server) build(q *cq.Query, db cq.Database, named string) *compiled {
	c := &compiled{db: db}
	if s.cfg.Log != nil {
		c.log = logFields{}
	}
	fail := func(msg string) *compiled {
		c.status, c.err = StatusError, msg
		return c
	}

	// Resolve the method, analyze the query and build the plan admission
	// measures (static, cheap).
	method := core.Method(named)
	if named == "" {
		method = core.MethodBucketElimination
	}
	if !core.Known(method) {
		return fail(fmt.Sprintf("unknown method %q", method))
	}
	st, err := jointree.Analyze(q)
	if err != nil {
		return fail("plan: " + err.Error())
	}
	c.structure = st
	p, err := admissionPlan(named, st)
	if err != nil {
		return fail("plan: " + err.Error())
	}
	c.log.set("method", string(method))
	if c.log != nil {
		c.log["fp"] = FingerprintID(p)
	}

	// Width-aware admission: reject before materializing anything. The
	// worst-case-optimal override applies only when the wcoj executor
	// would actually run — a methodless request (routed below) or an
	// explicit wcoj one — since for any other method the plan width, not
	// the output bound, governs the intermediates.
	overrideAGM := named == "" || method == core.MethodWCOJ
	v := assess(st, p, string(method), s.cfg.MaxWidth, s.cfg.MaxAGMLog2, s.cfg.MaxPredictedBytes, overrideAGM, db)
	c.verdict = v
	if !v.Admitted {
		c.log.set("verdict", "over_width")
		c.log.set("plan_width", v.PlanWidth)
		c.status = StatusOverWidth
		c.err = fmt.Sprintf("%v: plan width %d (elimination width %d, AGM log2 %.1f) over thresholds (width %d, AGM log2 %.1f)",
			engine.ErrOverWidth, v.PlanWidth, v.ElimWidth, v.AGMLog2, v.MaxWidth, v.MaxAGMLog2)
		return c
	}
	c.log.set("verdict", "admitted")
	if v.AdmittedOnAGM {
		// The width cap said no and the AGM bound overrode it — the
		// one admission the log must distinguish from a plain admit.
		c.log.set("verdict", "admitted_on_agm")
		c.log.set("agm_log2", v.AGMLog2)
	}

	// Routing: the executor, and the plan it runs, chosen once.
	inHand := core.Candidate{Plan: p, Order: core.PlanOrder(method), Width: v.PlanWidth}
	method, chosen, reason, err := route(core.Method(named), q, inHand, v)
	if err != nil {
		c.verdict = nil // nothing to keep: the query has no executable plan
		return fail("plan: " + err.Error())
	}
	c.method, c.reason, c.chosen = method, reason, chosen
	v.Method = string(method)
	c.log.set("method", string(method))
	c.log.set("route_reason", reason)
	if v.BagAGMLog2 != nil || v.FreeAGMLog2 != nil {
		// The quantities the size-only rule compared.
		c.log.set("agm_log2", v.AGMLog2)
	}
	if v.BagAGMLog2 != nil {
		c.log.set("bag_agm_log2", *v.BagAGMLog2)
	}
	if v.FreeAGMLog2 != nil {
		c.log.set("free_agm_log2", *v.FreeAGMLog2)
	}
	if v.PlanAGMLog2 != nil {
		c.log.set("plan_agm_log2", *v.PlanAGMLog2)
	}
	if runsPlan(method) {
		// The executed plan's width and order answer "why was this slow".
		c.log.set("plan_width", chosen.Width)
		c.log.set("order", string(chosen.Order))
	}

	// The route's strategy and the ladder it degrades down. A method the
	// request named runs as named; a route the server picked runs its plan
	// where resilience.Routed puts it.
	strategy, ladder := resilience.Strategy(method, st, chosen.Plan)
	if named == "" {
		strategy, ladder = resilience.Routed(method, st, chosen.Plan)
	}
	if m, _ := cascade(v); named == "" && v.arm == freeVarsArm && m != core.MethodWCOJ {
		strategy, ladder = budgeted(m, st, inHand, *v.PlanAGMLog2)
	}
	c.strategy = strategy
	c.ladder = sync.OnceValue(func() []engine.Fallback { return ladder(nil) })
	return c
}

// budgeted is the free_vars_under_bag route's strategy and ladder: the
// leapfrog join under a budget of 2^planLog2 seeks, the most a plan over
// the decomposition builds, then the rung of m, the cascade's pick, and
// the plan ladder (resilience.PlanLadder) — not m's own ladder, whose
// leapfrog lead above width 3 would run the spent join again, unbudgeted.
// The route's premise — a first witness per free assignment — fails on an
// instance with no witness, where leapfrog backtracks through every
// existential assignment (a ladder with a K4 at its far end: 3^n of them)
// while the plan stays linear; the budget caps the detour at what the
// plan is bounded by. m's plan is built only if the budget is spent. A
// cascade that picks the leapfrog join itself gets no budget.
func budgeted(m core.Method, st *jointree.Structure, inHand core.Candidate, planLog2 float64) (engine.Fallback, func(*rand.Rand) []engine.Fallback) {
	steps := int64(math.MaxInt64)
	if planLog2 < 62 {
		steps = int64(math.Exp2(planLog2))
	}
	lead := engine.NewWCOJ(st, steps)
	lead.Name = string(core.MethodWCOJ)
	behind, _ := resilience.Routed(m, st, nil)
	if runsPlan(m) {
		behind = engine.PlanRung(string(m), func() (plan.Node, error) {
			c, err := core.NarrowestBucketElimination(st.Query, inHand)
			return c.Plan, err
		})
	}
	return lead, func(rng *rand.Rand) []engine.Fallback {
		return append([]engine.Fallback{behind}, resilience.PlanLadder(st.Query, rng)...)
	}
}
