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
// Executions can share a subplan result Cache (Options.Cache): Join and
// Project subtrees are memoized under a renaming-invariant fingerprint
// plus a database fingerprint, so repeated executions of identical
// subtrees — across methods, repetitions, and worker counts — return the
// memoized relation instead of re-joining. Hits
// replay the subtree's recorded instrumentation, keeping cache-on and
// cache-off stats identical (except elapsed time, which is the point).
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"projpush/internal/cq"
	"projpush/internal/faultinject"
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
	// (ExecStream, ExecIterator, a spill-armed Exec) gives a closing
	// operator's bytes back, so there it caps the live bytes. Zero means
	// no budget. Exceeding it fails the run with ErrMemLimit — typically
	// long before MaxRows would fire, since the budget charges allocation
	// pressure, not just final cardinalities.
	MaxBytes int64
	// Cache, when non-nil, memoizes Join and Project subtree results
	// across executions of the plan walker, at any worker count (see
	// Cache); ExecStream memoizes its semijoin-reduced base scans in it
	// when its pushdown phase runs. The pull pipeline without the phase
	// (ExecIterator, a spill-armed Exec, an ExecStream that skipped it),
	// the Yannakakis and the WCOJ executors ignore it: they materialize no
	// immutable subtree results to share.
	Cache *Cache
	// SpillDir, when non-empty, arms spill-to-disk: instead of failing
	// with ErrMemLimit when live bytes exceed MaxBytes, the pull
	// pipeline's breakers — hash builds and DISTINCT states — go to temp
	// files under this directory and are replayed when consumed. MaxBytes
	// then bounds peak residency rather than availability. Unrecoverable
	// disk failures surface as ErrSpill. Every plan entry point honors
	// it: ExecStream and ExecIterator on their own pipelines, and Exec,
	// ExecContext and ExecParallel by running the plan on ExecIterator's
	// instead of the plan walker — an armed plan run therefore does not
	// consult Cache. The Yannakakis and WCOJ executors ignore it.
	SpillDir string
	// MaxSpillBytes caps the live bytes a run may hold on disk when
	// spilling (0 = unlimited). Exceeding it — or a real ENOSPC — fails
	// the run with ErrSpill.
	MaxSpillBytes int64
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
	// CacheHits and CacheMisses count subplan cache lookups by this
	// execution (zero when Options.Cache is nil). A hit replays the
	// memoized subtree's stats into the counters above, so the totals
	// match a cache-off run.
	CacheHits, CacheMisses int64
	// Bytes is the total bytes of relation storage materialized by Join
	// and Project operators (arena plus dedup table of each output).
	// Cache hits replay the memoized subtree's byte count, so cache-on
	// and cache-off totals match. The pull pipeline (ExecStream,
	// ExecIterator, a spill-armed Exec) reports its peak of live bytes
	// here instead — for it this equals PeakBytes.
	Bytes int64
	// PeakBytes is the high-water mark of live relation storage. The
	// materializing executors release nothing mid-run, so for them it
	// equals Bytes (and cache hits replay it identically); the pull
	// pipeline releases operator state on close, so its peak is what
	// admission should budget against — with or without a budget set,
	// spill armed or not.
	PeakBytes int64
	// MaterializedTuples counts tuples written into operator outputs by
	// Join and Project (and the Yannakakis bag evaluation) — the
	// materialization a full-reducer sweep exists to minimize. Cache
	// hits replay the memoized subtree's count, like Bytes.
	MaterializedTuples int64
	// ReducedTuples counts tuples eliminated by semijoin reduction
	// (the Yannakakis full-reducer sweeps). Zero for the plan
	// executors, which never semijoin.
	ReducedTuples int64
	// Seeks and Extensions instrument the worst-case-optimal executor
	// (ExecWCOJ): Seeks counts galloping SeekGE/SeekGT calls across all
	// variable levels, Extensions the values that survived a level's
	// leapfrog intersection. Zero for every other executor.
	Seeks, Extensions int64
	// SpilledBytes and SpillFiles count the cumulative spill traffic of
	// the run: bytes written to and temp files created under
	// Options.SpillDir. Zero when spilling is disabled or memory
	// pressure never fired. They are a run-level property, not a
	// subtree one: a subplan cache hit replays no spill traffic (the
	// memoized result is already resident).
	SpilledBytes int64
	SpillFiles   int
	// Attempts records the degradation history of an ExecResilient run:
	// one entry per plan tried, in order, the last being the one whose
	// stats this struct carries. Nil for the plain entry points.
	Attempts []Attempt
	// Elapsed is the wall-clock execution time.
	Elapsed time.Duration
}

// merge folds a subtree's stats into s: maxima for the size watermarks,
// sums for the additive counters.
func (s *Stats) merge(o *Stats) {
	if o.MaxRows > s.MaxRows {
		s.MaxRows = o.MaxRows
	}
	if o.MaxArity > s.MaxArity {
		s.MaxArity = o.MaxArity
	}
	s.Tuples += o.Tuples
	s.Work += o.Work
	s.Joins += o.Joins
	s.Projections += o.Projections
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.Bytes += o.Bytes
	s.PeakBytes += o.PeakBytes
	s.MaterializedTuples += o.MaterializedTuples
	s.ReducedTuples += o.ReducedTuples
	s.Seeks += o.Seeks
	s.Extensions += o.Extensions
	s.SpilledBytes += o.SpilledBytes
	s.SpillFiles += o.SpillFiles
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

// executor is the plan walker: it evaluates a plan bottom-up, materializing
// every Join and Project output. With workers ≥ 2 it additionally
// exploits parallelism on two axes:
//
//   - across the plan: the two sides of a join are computed concurrently
//     when both are non-trivial subtrees and a worker is free. Bucket
//     elimination and tree-decomposition plans are bushy — sibling buckets
//     share no state — so independent subtrees parallelize cleanly. The
//     forked side evaluates into a private stats frame merged at the join,
//     so no frame is ever shared between goroutines.
//
//   - inside a join: large joins are radix-partitioned on the join key
//     and the partitions are joined by a worker pool
//     (relation.ParallelJoinLimited). This is what lets chain-shaped
//     (left-deep) plans — the straightforward method on paths, ladders,
//     and augmented circular ladders — benefit from workers > 1, where
//     subtree parallelism alone degenerates to sequential execution.
//
// A spill-armed run (Options.SpillDir) never reaches this type: only the
// pull pipeline's breakers can go out of core, so ExecParallelContext
// hands such a run to the pipeline.
type executor struct {
	governor
	cache *Cache
	dbFP  string

	// workers bounds the concurrently evaluating subtrees and the fan-out
	// of each partitioned join. sem is nil on a sequential run; abort
	// cancels the run's context so a failing subtree stops its sibling.
	workers int
	sem     chan struct{}
	abort   context.CancelFunc
	sizes   map[plan.Node]int

	// rows/cached record per-node output cardinalities for EXPLAIN
	// ANALYZE; nil outside Explain.
	rows   map[plan.Node]int
	cached map[plan.Node]bool
}

func newExecutor(ctx context.Context, db cq.Database, opt Options, workers int) *executor {
	ex := &executor{cache: opt.Cache, workers: workers}
	if ex.cache != nil {
		ex.dbFP = DatabaseFingerprint(db)
	}
	ex.govern(ctx, db, opt)
	return ex
}

// admissible reports whether a cached subtree's recorded footprint fits
// this run's limits. An inadmissible hit falls through to honest
// re-execution, which reports the violation exactly as an uncached run
// would.
func (ex *executor) admissible(sub *Stats) bool {
	if ex.maxRows > 0 && sub.MaxRows > ex.maxRows {
		return false
	}
	if ex.maxBytes > 0 && ex.bytes.Load()+sub.Bytes > ex.maxBytes {
		return false
	}
	return true
}

// Exec evaluates the plan over db under opt, on the materializing plan
// walker unless opt arms a spill directory (see ExecParallelContext).
// On timeout, cancellation, row-cap or byte-budget violation it returns
// ErrTimeout, ErrCanceled, ErrRowLimit or ErrMemLimit (wrapped); the
// partial stats collected so far are returned alongside so harnesses can
// report how far a run got.
func Exec(n plan.Node, db cq.Database, opt Options) (*Result, error) {
	return ExecContext(context.Background(), n, db, opt)
}

// ExecContext is Exec under a context: cancellation is observed by every
// kernel within a bounded amount of work and surfaces as ErrCanceled
// (matching context.Canceled under errors.Is).
func ExecContext(ctx context.Context, n plan.Node, db cq.Database, opt Options) (*Result, error) {
	return ExecParallelContext(ctx, n, db, opt, 1)
}

// ExecParallel evaluates the plan like Exec with up to workers goroutines
// spent on independent subtrees and partitioned joins (values < 2 run
// sequentially). Results are identical to Exec, and so are the
// per-operator counters; Work and MaxRows are merged from each
// goroutine's private frame. A subplan cache (opt.Cache) is shared across
// worker counts: the stats stored with an entry cover exactly its
// subtree, so hits replay identical instrumentation whichever run
// populated the entry.
func ExecParallel(n plan.Node, db cq.Database, opt Options, workers int) (*Result, error) {
	return ExecParallelContext(context.Background(), n, db, opt, workers)
}

// ExecParallelContext is ExecParallel under a context: cancellation is
// polled by every kernel and every partition worker, and surfaces as
// ErrCanceled. A panic in a subtree-evaluating goroutine is recovered at
// the goroutine boundary, cancels the sibling subtree's workers via the
// shared limit, and surfaces as ErrInternal instead of crashing the
// process.
//
// With opt.SpillDir armed the plan runs on the pull pipeline instead
// (ExecIteratorContext, whatever the worker count): a tree walker holds
// every operator output whole until its consumer has run, so it has
// nothing it can shed to disk mid-operator, whereas the pipeline's
// breakers spill and its budget already bounds live bytes.
func ExecParallelContext(ctx context.Context, n plan.Node, db cq.Database, opt Options, workers int) (*Result, error) {
	if opt.SpillDir != "" {
		return ExecIteratorContext(ctx, n, db, opt)
	}
	return newExecutor(ctx, db, opt, workers).run(n)
}

// run evaluates n and settles the run's totals.
func (ex *executor) run(n plan.Node) (*Result, error) {
	if ex.workers < 2 {
		ex.workers = 1
	} else {
		// The run's own context lets a failing subtree cancel its
		// concurrently evaluating sibling instead of letting it run to its
		// own limits.
		ex.ctx, ex.abort = context.WithCancel(ex.ctx)
		defer ex.abort()
		ex.sem = make(chan struct{}, ex.workers)
		ex.sizes = make(map[plan.Node]int)
		measureSubtrees(n, ex.sizes)
	}
	return ex.finish(ex.eval(n, &ex.stats))
}

// measureSubtrees records the node count of every subtree in one walk, so
// evalPair's fork-or-not decision is O(1) per join instead of re-walking
// the subtree at every pair (O(n²) on deep chain plans).
func measureSubtrees(n plan.Node, sizes map[plan.Node]int) int {
	size := 1
	for _, c := range n.Children() {
		size += measureSubtrees(c, sizes)
	}
	sizes[n] = size
	return size
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
func (ex *executor) record(n plan.Node, r *relation.Relation, fromCache bool) {
	if ex.rows == nil {
		return
	}
	ex.rows[n] = r.Len()
	if fromCache {
		ex.cached[n] = true
	}
}

// eval evaluates n, charging instrumentation into the stats frame st.
// With a cache configured, Join and Project subtrees are memoized: a miss
// evaluates the subtree into a private frame whose totals are stored with
// the result and then merged into st, so a later hit can replay exactly
// the instrumentation the evaluation would have produced.
func (ex *executor) eval(n plan.Node, st *Stats) (*relation.Relation, error) {
	if _, isScan := n.(*plan.Scan); !isScan && ex.cache != nil {
		return ex.evalCached(n, st)
	}
	return ex.evalOp(n, st)
}

// evalCached wraps evalOp in a cache lookup/store for a Join or Project
// subtree.
func (ex *executor) evalCached(n plan.Node, st *Stats) (*relation.Relation, error) {
	key, vars := cacheKey(ex.dbFP, n)
	if rel, sub, ok := ex.cache.get(key); ok && ex.admissible(&sub) {
		// A hit whose recorded intermediates exceed this run's row cap
		// or byte budget falls through to honest re-execution (which
		// will report the violation, as the uncached run would).
		st.CacheHits++
		st.merge(&sub)
		ex.bytes.Add(sub.Bytes)
		out := fromCanonical(rel, vars)
		ex.record(n, out, true)
		return out, nil
	}
	st.CacheMisses++
	var sub Stats
	rel, err := ex.evalOp(n, &sub)
	// Cache counters of nested lookups live in the live run, not in the
	// stored entry: a future hit replays the subtree's execution stats,
	// not its cache traffic.
	entryStats := sub
	entryStats.CacheHits, entryStats.CacheMisses = 0, 0
	st.merge(&sub)
	if err != nil {
		return nil, err
	}
	ex.cache.put(key, toCanonical(rel, vars), entryStats)
	return rel, nil
}

// evalOp evaluates one operator node, recursing through eval for children.
func (ex *executor) evalOp(n plan.Node, st *Stats) (*relation.Relation, error) {
	switch t := n.(type) {
	case *plan.Scan:
		bound, err := ex.scan(st, &t.Atom)
		if err != nil {
			return nil, err
		}
		ex.record(n, bound, false)
		return bound, nil

	case *plan.Join:
		l, r, err := ex.evalPair(t, st)
		if err != nil {
			return nil, err
		}
		out, err := ex.join(st, l, r, ex.workers)
		if err != nil {
			return nil, err
		}
		ex.record(n, out, false)
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
		ex.record(n, out, false)
		return out, nil

	default:
		return nil, fmt.Errorf("engine: unknown plan node %T", n)
	}
}

// evalPair evaluates a join's two inputs: concurrently when both are
// non-trivial subtrees and a worker is free, otherwise left then right.
func (ex *executor) evalPair(t *plan.Join, st *Stats) (l, r *relation.Relation, err error) {
	if ex.sem != nil && ex.sizes[t.Left] >= 3 && ex.sizes[t.Right] >= 3 {
		select {
		case ex.sem <- struct{}{}:
			return ex.forkPair(t, st)
		default:
			// No free worker: stay sequential.
		}
	}
	if l, err = ex.eval(t.Left, st); err != nil {
		return nil, nil, err
	}
	r, err = ex.eval(t.Right, st)
	return l, r, err
}

// forkPair evaluates the right input on its own goroutine, holding the
// worker slot evalPair acquired, into a private frame merged into st once
// both sides are done.
func (ex *executor) forkPair(t *plan.Join, st *Stats) (l, r *relation.Relation, err error) {
	var (
		rst  Stats
		rerr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { <-ex.sem }()
		// A failing subtree cancels its sibling; a panicking one
		// additionally becomes a typed error at the goroutine
		// boundary (classified as ErrInternal by the entry point)
		// instead of crashing the process.
		defer func() {
			if rerr != nil {
				ex.abort()
			}
		}()
		defer relation.RecoverPanic(&rerr)
		faultinject.Panic(faultinject.PanicSubtreeWorker)
		r, rerr = ex.eval(t.Right, &rst)
	}()
	if l, err = ex.eval(t.Left, st); err != nil {
		ex.abort()
	}
	wg.Wait()
	st.merge(&rst)
	return l, r, preferErr(err, rerr)
}

// preferErr picks the more informative of two concurrent subtree errors:
// a genuine failure over the cancellation it induced in its sibling.
func preferErr(a, b error) error {
	if a == nil {
		return b
	}
	if b != nil && errors.Is(a, relation.ErrCanceled) && !errors.Is(b, relation.ErrCanceled) {
		return b
	}
	return a
}
