// Package resilience connects the paper's plan-construction methods
// (package core) to the engine's executors and its degradation ladder
// (engine.ExecResilientStrategy). It lives outside both packages so that
// core stays a pure plan library and engine stays method-agnostic.
package resilience

import (
	"context"
	"math/rand"
	"slices"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/jointree"
	"projpush/internal/plan"
)

// Strategy is the one place a method names its executor: it returns the
// strategy that runs (and explains) method m on the analyzed query s —
// one of the engine's four executor constructors, named after m — and the
// ladder a resilient run of it degrades down. Callers run the strategy
// directly, or as the first rung of engine.ExecResilientStrategy over
// ladder(rng).
//
// The three execution strategies degrade to the plan ladder (PlanLadder),
// whose rungs run on the pull pipeline.
// The Yannakakis full reducer (engine.NewYannakakis) and the leapfrog
// multiway join (engine.NewWCOJ) work from the structure and ignore p: the
// full reducer sweeps s.Tree and the leapfrog join starts from s.Order,
// both computed once by jointree.Analyze and shared by every run. The
// streaming engine (engine.NewPipeline) lowers whatever plan it is handed
// and never re-plans — the caller has chosen p — and runs its semijoin
// sweeps only where one scan can reduce another. Every other method is a plan shape that
// somebody named: p runs on the materializing plan walker
// (engine.NewWalker; a plan no method of package core built, like the
// hybrid optimizer's choice, lands here too), because the walker's counts
// are the paper's — the pull pipeline's fused projection would hide the
// very blow-up of the straightforward method that Figures 6–9 exist to
// show. It degrades down the whole DegradationLadder, since a plan that
// blew a limit says nothing about the executors above it. A plan nobody
// named is Routed's.
func Strategy(m core.Method, s *jointree.Structure, p plan.Node) (st engine.Fallback, ladder func(*rand.Rand) []engine.Fallback) {
	ladder = func(rng *rand.Rand) []engine.Fallback { return PlanLadder(s.Query, rng) }
	switch m {
	case core.MethodYannakakis:
		st = engine.NewYannakakis(s)
	case core.MethodStream:
		st = engine.NewPipeline(p)
	case core.MethodWCOJ:
		st = engine.NewWCOJ(s, 0)
	default:
		st = engine.NewWalker(p)
		ladder = func(rng *rand.Rand) []engine.Fallback { return DegradationLadder(s, rng) }
	}
	st.Name = string(m)
	return st, ladder
}

// Routed is Strategy for a request that named no method: m is the route a
// router picked and p the plan it chose for it. Nobody asked for the
// walker's counts, so a routed plan runs where it runs best — on the pull
// pipeline, entered as the streaming engine enters it, which charges what
// the run keeps alive rather than everything it ever materialized — under
// the route's own name and ladder. The executor is a function of the
// request alone: no server setting brings the walker back.
func Routed(m core.Method, s *jointree.Structure, p plan.Node) (engine.Fallback, func(*rand.Rand) []engine.Fallback) {
	st, ladder := Strategy(m, s, p)
	if !slices.Contains(core.Strategies, m) {
		st = engine.NewPipeline(p)
		st.Name = string(m)
	}
	return st, ladder
}

// DegradationLadder returns the fallback ladder for
// engine.ExecResilientStrategy: a lead chosen by width, then the paper's
// two projection-pushing methods from cheapest re-plan to most robust
// (PlanLadder). When the query is narrow (s.Width, its MCS elimination
// width, at most engine.DefaultYannakakisWidth — acyclic queries always
// qualify), the Yannakakis full reducer leads, because its semijoin sweeps
// delete non-contributing tuples before anything is materialized and so
// survive exactly the resource aborts that trigger the ladder. Wide queries
// lead with the worst-case-optimal rung instead: over that width the query
// is (or behaves like) a cyclic one, every join-tree method risks an
// intermediate polynomially over the output, and the leapfrog multiway join
// is the only executor whose work is bounded by the AGM output bound.
//
// A plan that blows the row cap or memory budget is almost always a
// projection-pushing failure — the straightforward method's intermediates
// are exponential exactly where early projection (Section 4) and bucket
// elimination (Section 5) stay polynomial in the treewidth — so retrying
// down this ladder turns a resource abort into the answer the safer method
// would have produced all along. rng seeds the bucket-elimination
// tie-breaking (nil is deterministic).
func DegradationLadder(s *jointree.Structure, rng *rand.Rand) []engine.Fallback {
	lead := core.MethodWCOJ
	if s.Width <= engine.DefaultYannakakisWidth {
		lead = core.MethodYannakakis
	}
	first, _ := Strategy(lead, s, nil)
	return append([]engine.Fallback{first}, PlanLadder(s.Query, rng)...)
}

// RemoteRung adapts an execution that happens outside the local engine —
// a cluster coordinator's forward to its worker fleet — into a
// degradation-ladder rung. run receives the context and may ignore the
// database and options entirely; a nil result is normalized to an empty
// one to satisfy the Fallback.Run contract. The coordinator composes
// RemoteRung ahead of DegradationLadder so that when every replica for a
// shard is down (run fails with an error wrapping engine.ErrInternal,
// which is degradable), execution falls back to local degraded rungs and
// Stats.Attempts leads with the failed fleet attempt — the answer then
// honestly reports how it was rescued.
func RemoteRung(name string, run func(ctx context.Context) (*engine.Result, error)) engine.Fallback {
	return engine.Fallback{
		Name: name,
		Run: func(ctx context.Context, _ cq.Database, _ engine.Options) (*engine.Result, error) {
			res, err := run(ctx)
			if res == nil {
				res = &engine.Result{}
			}
			return res, err
		},
	}
}

// PlanLadder is the plan-based part of the ladder: early projection, then
// bucket elimination, each built only if its rung is reached and run on the
// pull pipeline (engine.PlanRung), where the byte budget bounds live bytes
// as it does on a routed first attempt.
func PlanLadder(q *cq.Query, rng *rand.Rand) []engine.Fallback {
	return []engine.Fallback{
		engine.PlanRung(string(core.MethodEarlyProjection), func() (plan.Node, error) { return core.EarlyProjection(q) }),
		engine.PlanRung(string(core.MethodBucketElimination), func() (plan.Node, error) { return core.BucketElimination(q, rng) }),
	}
}
