// Package resilience connects the paper's plan-construction methods
// (package core) to the engine's degradation ladder
// (engine.ExecResilient). It lives outside both packages so that core
// stays a pure plan library and engine stays method-agnostic.
package resilience

import (
	"context"
	"math/rand"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/plan"
)

// DegradationLadder returns the fallback ladder for engine.ExecResilient:
// when the query is narrow (MCS elimination width at most
// engine.DefaultYannakakisWidth — acyclic queries always qualify), the
// Yannakakis full reducer leads, because its semijoin sweeps delete
// non-contributing tuples before anything is materialized and so survive
// exactly the resource aborts that trigger the ladder; then the paper's
// methods ordered from cheapest re-plan to most robust. A plan that blows
// the row cap or memory budget is almost always a projection-pushing
// failure — the straightforward method's intermediates are exponential
// exactly where early projection (Section 4) and bucket elimination
// (Section 5) stay polynomial in the treewidth — so retrying down this
// ladder turns a resource abort into the answer the safer method would
// have produced all along.
//
// rng seeds the bucket-elimination tie-breaking (nil is deterministic);
// plans are constructed lazily, only if their rung is reached.
// Between the full reducer and the plan methods sits the streaming rung:
// the pipelined engine's semijoin pushdown and live-byte accounting make
// it the natural retry when a materializing plan blew the memory budget
// but the query is not narrow enough (or the reducer itself failed) for
// Yannakakis. It lowers the narrower of the early-projection and
// bucket-elimination plans (core.StreamPlan), as the server's stream
// tier does.
// Wide queries lead with the worst-case-optimal rung instead: when the
// MCS width is over the Yannakakis threshold the query is (or behaves
// like) a cyclic one, every join-tree method risks an intermediate
// polynomially over the output, and the leapfrog multiway join is the
// only executor whose work is bounded by the AGM output bound.
//
// With Options.SpillDir set, every rung additionally carries an implicit
// retry-with-spill step (engine.ExecResilientStrategy): a rung that
// fails with ErrMemLimit re-runs once with spilling armed — recorded as
// a "<rung>+spill" attempt in Stats.Attempts — before the ladder falls
// further. Memory pressure then degrades to disk latency on the same
// strategy instead of forcing a method change, and only an actual spill
// failure (ErrSpill) or a second memory violation moves the run down a
// rung.
func DegradationLadder(q *cq.Query, rng *rand.Rand) []engine.Fallback {
	var ladder []engine.Fallback
	if engine.MCSElimWidth(q) <= engine.DefaultYannakakisWidth {
		ladder = append(ladder, YannakakisRung(q))
	} else {
		ladder = append(ladder, WCOJRung(q))
	}
	ladder = append(ladder, streamRung(func() (plan.Node, error) {
		p, err := core.BucketElimination(q, rng)
		if err != nil {
			return nil, err
		}
		c, err := core.StreamPlan(q, core.NewCandidate(p, core.OrderMCS))
		return c.Plan, err
	}))
	return append(ladder, PlanLadder(q, rng)...)
}

// YannakakisRung is the full-reducer rung: a Run-style fallback that
// executes q with engine.ExecYannakakisContext. The server's narrow-query
// routing also uses it as the first rung of ExecResilientStrategy.
func YannakakisRung(q *cq.Query) engine.Fallback {
	return engine.Fallback{
		Name: string(core.MethodYannakakis),
		Run: func(ctx context.Context, db cq.Database, opt engine.Options) (*engine.Result, error) {
			return engine.ExecYannakakisContext(ctx, q, db, opt)
		},
	}
}

// StreamRung is the pipelined-engine rung: a Run-style fallback that
// lowers the plan it is given with engine.ExecStreamContext — semijoin
// pushdown, fused projections, and a live-byte (rather than cumulative)
// memory budget. It never re-plans: the caller has chosen the plan
// (core.StreamPlan for a request that named no method). The server's
// mid-width routing uses it as the first rung of ExecResilientStrategy.
func StreamRung(p plan.Node) engine.Fallback {
	return streamRung(func() (plan.Node, error) { return p, nil })
}

// streamRung builds its plan only if the rung is reached.
func streamRung(build func() (plan.Node, error)) engine.Fallback {
	return engine.Fallback{
		Name: string(core.MethodStream),
		Run: func(ctx context.Context, db cq.Database, opt engine.Options) (*engine.Result, error) {
			p, err := build()
			if err != nil {
				return &engine.Result{}, err
			}
			return engine.ExecStreamContext(ctx, p, db, opt)
		},
	}
}

// WCOJRung is the worst-case-optimal rung: a Run-style fallback that
// executes q as one leapfrog multiway join with engine.ExecWCOJContext.
// The server's AGM-bounded routing uses it as the first rung of
// ExecResilientStrategy for cyclic queries, and DegradationLadder leads
// with it when the query is too wide for the full reducer.
func WCOJRung(q *cq.Query) engine.Fallback {
	return engine.Fallback{
		Name: string(core.MethodWCOJ),
		Run: func(ctx context.Context, db cq.Database, opt engine.Options) (*engine.Result, error) {
			return engine.ExecWCOJContext(ctx, q, db, opt)
		},
	}
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
// bucket elimination.
func PlanLadder(q *cq.Query, rng *rand.Rand) []engine.Fallback {
	return []engine.Fallback{
		{
			Name:  string(core.MethodEarlyProjection),
			Build: func() (plan.Node, error) { return core.EarlyProjection(q) },
		},
		{
			Name:  string(core.MethodBucketElimination),
			Build: func() (plan.Node, error) { return core.BucketElimination(q, rng) },
		},
	}
}
