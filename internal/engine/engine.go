// Package engine evaluates project-join plans over in-memory databases.
//
// It is the stand-in for the PostgreSQL backend of the paper's experiments:
// a main-memory executor with hash joins and SELECT DISTINCT semantics.
// Execution is instrumented — maximum intermediate cardinality and arity,
// tuples materialized, operator counts — because those quantities, not
// hardware details, drive the paper's running-time curves. Runs can be
// bounded by a deadline and a row cap so that deliberately bad plans (the
// straightforward method on augmented circular ladders) terminate the way
// the paper reports them: as timeouts.
//
// A query runs on the goroutine that called the entry point: no executor
// starts another. Concurrency lives above the engine — the server's
// connections, the experiment harness's measurement pool, the fleet.
package engine

import (
	"context"
	"fmt"
	"time"

	"projpush/internal/cq"
	"projpush/internal/plan"
	"projpush/internal/relation"
)

// Options bounds and instruments an execution.
type Options struct {
	// Timeout aborts the run after this duration. Zero means no timeout.
	Timeout time.Duration
	// MaxRows caps the cardinality of any intermediate relation.
	// Zero means no cap.
	MaxRows int
	// MaxBytes caps the bytes of relation storage (tuple arenas, dedup
	// tables, join tables) the run is charged for. What is charged depends
	// on the executor: the materializing ones (the plan walker, the full
	// reducer, the leapfrog join) release nothing mid-run, so for them it
	// caps everything the run ever materialized; the pull pipeline
	// (NewPipeline, ExecIterator) gives a closing operator's bytes back,
	// so there it caps the live bytes. Zero means
	// no budget. Exceeding it fails the run with ErrMemLimit — typically
	// long before MaxRows would fire, since the budget charges allocation
	// pressure, not just final cardinalities.
	MaxBytes int64
}

// Stats instruments one execution.
type Stats struct {
	// MaxRows is the largest intermediate (or final) cardinality.
	MaxRows int
	// MaxArity is the widest intermediate (or final) schema. For a
	// projection-pushed plan this is the plan's width; the paper's
	// Theorem 1 bounds its optimum by treewidth+1.
	MaxArity int
	// Tuples is the total number of tuples materialized across all
	// operators.
	Tuples int64
	// Work counts tuples touched by the join and projection kernels
	// (probe matches, build rows, input rows).
	Work int64
	// Joins and Projections count operators executed.
	Joins, Projections int
	// Bytes is the total bytes of relation storage materialized by Join
	// and Project operators (arena plus dedup table of each output).
	// The pull pipeline (NewPipeline, ExecIterator) reports its peak of
	// live bytes here instead — for it this equals PeakBytes.
	Bytes int64
	// PeakBytes is the high-water mark of live relation storage. The
	// materializing executors release nothing mid-run, so for them it
	// equals Bytes; the pull pipeline releases operator state on close,
	// so its peak is what admission should budget against — with or
	// without a budget set.
	PeakBytes int64
	// MaterializedTuples counts tuples written into operator outputs by
	// Join and Project — for the Yannakakis full reducer, the joins of the
	// atoms a bag hosts and the bag-by-bag evaluation — the
	// materialization a full-reducer sweep exists to minimize.
	MaterializedTuples int64
	// ReducedTuples counts tuples eliminated by semijoin reduction: the
	// Yannakakis seed walk and sweeps (an atom's tuple filtered before its
	// bag's join counts once), and the pull pipeline's semijoin pushdown
	// (its scan sweeps and build-side filters). Zero for the materializing
	// plan walker and the worst-case-optimal executor, which never
	// semijoin.
	ReducedTuples int64
	// Seeks and Extensions instrument the worst-case-optimal executor
	// (NewWCOJ): Seeks counts galloping SeekGE/SeekGT calls across all
	// variable levels, Extensions the values that survived a level's
	// leapfrog intersection. Zero for every other executor.
	Seeks, Extensions int64
	// Attempts records the degradation history of an ExecResilientStrategy
	// run: one entry per rung tried, in order, the last being the one whose
	// stats this struct carries. Nil for a run of a single executor.
	Attempts []Attempt
	// Elapsed is the wall-clock execution time.
	Elapsed time.Duration
}

// Result is the outcome of executing a plan.
type Result struct {
	// Rel is the final relation (over the plan root's schema).
	Rel *relation.Relation
	// Stats instruments the run.
	Stats Stats
}

// Nonempty reports whether the query result is nonempty — the answer to a
// Boolean query.
func (r *Result) Nonempty() bool { return !r.Rel.Empty() }

// executor is the plan walker: it evaluates a plan bottom-up, left input
// then right, materializing every Join and Project output.
type executor struct {
	governor

	// rows records per-node output cardinalities for EXPLAIN ANALYZE;
	// nil outside Explain.
	rows map[plan.Node]int
}

func newExecutor(ctx context.Context, db cq.Database, opt Options) *executor {
	ex := &executor{}
	ex.govern(ctx, db, opt)
	return ex
}

// NewWalker returns the materializing plan walker for p: Run evaluates the
// plan bottom-up, materializing every Join and Project output, and Explain
// renders it as the π…/⋈ tree (explainWalker). On timeout, cancellation,
// row-cap or byte-budget violation Run returns ErrTimeout, ErrCanceled,
// ErrRowLimit or ErrMemLimit (wrapped); the partial stats collected so far
// are returned alongside so harnesses can report how far a run got.
// Cancellation is observed by every kernel within a bounded amount of work
// and surfaces as ErrCanceled (matching context.Canceled under errors.Is).
func NewWalker(p plan.Node) Fallback {
	return Fallback{
		Run: func(ctx context.Context, db cq.Database, opt Options) (*Result, error) {
			return newExecutor(ctx, db, opt).run(p)
		},
		Explain: func(db cq.Database, opt Options, analyze bool) (string, error) {
			return explainWalker(p, db, opt, analyze)
		},
	}
}

// Exec runs the plan on the walker (NewWalker) without a context.
func Exec(n plan.Node, db cq.Database, opt Options) (*Result, error) {
	return NewWalker(n).Run(context.Background(), db, opt)
}

// ExecContext runs the plan on the walker (NewWalker) under ctx.
func ExecContext(ctx context.Context, n plan.Node, db cq.Database, opt Options) (*Result, error) {
	return NewWalker(n).Run(ctx, db, opt)
}

// run evaluates n and settles the run's totals, panic-isolated like the
// other executors' run: a fault anywhere in the walk surfaces as a
// *relation.PanicError, which classifyErr maps to ErrInternal — degradable
// — instead of unwinding into the caller.
func (ex *executor) run(n plan.Node) (*Result, error) {
	rel, err := func() (rel *relation.Relation, err error) {
		defer relation.RecoverPanic(&err)
		return ex.eval(n, &ex.stats)
	}()
	return ex.finish(rel, err)
}

// observe folds one operator's output into the stats frame.
func observe(st *Stats, r *relation.Relation) {
	if r.Len() > st.MaxRows {
		st.MaxRows = r.Len()
	}
	if r.Arity() > st.MaxArity {
		st.MaxArity = r.Arity()
	}
	st.Tuples += int64(r.Len())
}

// materialized folds a Join or Project output — storage the operator
// allocated, unlike a scan's view — into the stats frame.
func materialized(st *Stats, out *relation.Relation) {
	st.Bytes += out.Bytes()
	st.PeakBytes += out.Bytes()
	st.MaterializedTuples += int64(out.Len())
	observe(st, out)
}

// record notes a node's output cardinality for EXPLAIN ANALYZE.
func (ex *executor) record(n plan.Node, r *relation.Relation) {
	if ex.rows != nil {
		ex.rows[n] = r.Len()
	}
}

// eval evaluates n, charging instrumentation into the stats frame st.
func (ex *executor) eval(n plan.Node, st *Stats) (*relation.Relation, error) {
	switch t := n.(type) {
	case *plan.Scan:
		bound, err := ex.scan(st, &t.Atom)
		if err != nil {
			return nil, err
		}
		ex.record(n, bound)
		return bound, nil

	case *plan.Join:
		l, err := ex.eval(t.Left, st)
		if err != nil {
			return nil, err
		}
		r, err := ex.eval(t.Right, st)
		if err != nil {
			return nil, err
		}
		out, _, err := ex.join(st, l, r, nil)
		if err != nil {
			return nil, err
		}
		ex.record(n, out)
		return out, nil

	case *plan.Project:
		c, err := ex.eval(t.Child, st)
		if err != nil {
			return nil, err
		}
		out, err := ex.project(st, c, t.Cols)
		if err != nil {
			return nil, err
		}
		ex.record(n, out)
		return out, nil

	default:
		return nil, fmt.Errorf("engine: unknown plan node %T", n)
	}
}
