package engine

import (
	"context"
	"errors"
	"time"

	"projpush/internal/cq"
	"projpush/internal/plan"
)

// Fallback is one execution strategy: a way to answer a query that can
// run on its own or as a rung of a degradation ladder, tried when the
// previous rung failed degradably. Each executor has one constructor that
// returns it — NewWalker, NewPipeline, NewYannakakis, NewWCOJ — and
// leaves Name to the caller (resilience.Strategy names it after the
// method).
type Fallback struct {
	// Name labels the rung in Stats.Attempts (typically the method name).
	Name string
	// Run executes the strategy. It must return a non-nil Result even on
	// failure, as the engine's executors do. A rung that builds its plan
	// when reached (PlanRung) reports a construction failure as such, and
	// the ladder skips it.
	Run func(ctx context.Context, db cq.Database, opt Options) (*Result, error)
	// Explain renders what Run executes; with analyze set it runs it and
	// annotates the rendering with what happened. Nil on rungs that are
	// only ever reached by degradation.
	Explain func(db cq.Database, opt Options, analyze bool) (string, error)
}

// Attempt records one rung of an ExecResilientStrategy run.
type Attempt struct {
	// Method is the rung's label (its Fallback's Name).
	Method string
	// Err is the failure, empty for the succeeding attempt. Plan
	// construction failures are prefixed "plan: ".
	Err string
	// Elapsed, MaxRows and Bytes summarize how far the attempt got.
	Elapsed time.Duration
	MaxRows int
	Bytes   int64
}

// planFailure is the error of a rung that could not build its plan: the
// rung never ran, so the ladder records the attempt and keeps the previous
// rung's result and error.
type planFailure struct{ error }

func (e planFailure) Error() string { return "plan: " + e.error.Error() }

// PlanRung is the rung that runs a plan: on the pull pipeline, entered as
// the streaming engine enters it, so Options.MaxBytes bounds live bytes on
// a degraded attempt exactly as on a routed first one. build runs only if
// the rung is reached, so plan construction is paid on demand.
func PlanRung(name string, build func() (plan.Node, error)) Fallback {
	return Fallback{Name: name, Run: func(ctx context.Context, db cq.Database, opt Options) (*Result, error) {
		p, err := build()
		if err != nil {
			return &Result{}, planFailure{err}
		}
		return NewPipeline(p).Run(ctx, db, opt)
	}}
}

// Degradable reports whether an execution error warrants retrying with a
// safer plan: resource exhaustion (ErrRowLimit, ErrMemLimit, ErrWorkLimit)
// and internal faults (ErrInternal) do; timeouts and cancellations do not
// — the caller asked the run to stop, and a safer method cannot un-expire
// a deadline.
func Degradable(err error) bool {
	return errors.Is(err, ErrRowLimit) || errors.Is(err, ErrMemLimit) ||
		errors.Is(err, ErrWorkLimit) || errors.Is(err, ErrInternal)
}

// ExecResilientStrategy runs first — the strategy a method names
// (resilience.Strategy) — over db under opt and, when it fails on a
// resource limit (ErrRowLimit, ErrMemLimit) or an internal fault
// (ErrInternal), retries down the fallback ladder instead of giving up.
// This mirrors how the paper's methods relate
// in practice: the straightforward method legitimately explodes on
// treewidth-bounded instances where early projection or bucket
// elimination stays polynomial, so a failure of the former is an
// instruction to re-plan, not a property of the query. Every attempt gets
// a fresh byte budget and timeout.
//
// The returned Result carries the succeeding attempt's stats, with
// Stats.Attempts listing every rung tried in order. When every rung
// fails, the last rung's result and error are returned (Attempts still
// records the full history).
func ExecResilientStrategy(ctx context.Context, first Fallback, fallbacks []Fallback,
	db cq.Database, opt Options) (*Result, error) {

	var attempts []Attempt
	// try executes one rung and records the attempt; ok is false when the
	// rung could not build its plan (the caller keeps the previous rung's
	// result and error).
	try := func(fb Fallback) (*Result, error, bool) {
		res, err := fb.Run(ctx, db, opt)
		a := Attempt{Method: fb.Name}
		if res != nil {
			a.Elapsed = res.Stats.Elapsed
			a.MaxRows = res.Stats.MaxRows
			a.Bytes = res.Stats.Bytes
		}
		ok := true
		if err != nil {
			a.Err = err.Error()
			ok = !errors.As(err, new(planFailure))
		}
		attempts = append(attempts, a)
		return res, err, ok
	}
	res, err, _ := try(first)
	for _, fb := range fallbacks {
		if err == nil || !Degradable(err) {
			break
		}
		r, e, ok := try(fb)
		if !ok {
			continue
		}
		res, err = r, e
	}
	if res != nil {
		res.Stats.Attempts = attempts
	}
	return res, err
}
