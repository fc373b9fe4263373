package engine_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/faultinject"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/plan"
	"projpush/internal/resilience"
)

// figure9 builds a Figure-9-style instance — the Boolean 3-COLOR query of
// an augmented circular ladder — the regime the resource governor exists
// for: the straightforward plan's intermediates explode while bucket
// elimination stays polynomial.
func figure9(t testing.TB, order int) (*cq.Query, cq.Database) {
	t.Helper()
	g := graph.AugmentedCircularLadder(order)
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	return q, instance.ColorDatabase(3)
}

func buildPlan(t testing.TB, m core.Method, q *cq.Query) plan.Node {
	t.Helper()
	p, err := core.BuildPlan(m, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSentinelAliases checks the engine sentinels match their context
// counterparts under errors.Is, and only those.
func TestSentinelAliases(t *testing.T) {
	if !errors.Is(engine.ErrTimeout, context.DeadlineExceeded) {
		t.Error("ErrTimeout does not match context.DeadlineExceeded")
	}
	if !errors.Is(engine.ErrCanceled, context.Canceled) {
		t.Error("ErrCanceled does not match context.Canceled")
	}
	if errors.Is(engine.ErrTimeout, context.Canceled) {
		t.Error("ErrTimeout must not match context.Canceled")
	}
	if errors.Is(engine.ErrRowLimit, context.DeadlineExceeded) {
		t.Error("ErrRowLimit must not match context.DeadlineExceeded")
	}
}

// TestTimeoutMatchesDeadlineExceeded runs a hopeless plan under a tiny
// timeout and checks the failure matches both the engine sentinel and the
// standard library's.
func TestTimeoutMatchesDeadlineExceeded(t *testing.T) {
	q, db := figure9(t, 6)
	p := buildPlan(t, core.MethodStraightforward, q)
	_, err := engine.Exec(p, db, engine.Options{Timeout: 2 * time.Millisecond})
	if !errors.Is(err, engine.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want errors.Is(err, context.DeadlineExceeded)", err)
	}
}

// TestExecContextCancellation cancels both plan executors, before the run
// and mid-run, and checks the failure is ErrCanceled (matching
// context.Canceled) with no goroutine leak.
func TestExecContextCancellation(t *testing.T) {
	// Order 12 keeps every executor busy far past the 3 ms cancel below:
	// the pull pipeline, with projection fused into its scans, finishes
	// order 6 in about a millisecond.
	q, db := figure9(t, 12)
	p := buildPlan(t, core.MethodStraightforward, q)
	base := runtime.NumGoroutine()

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	type runner struct {
		name string
		run  func(ctx context.Context) error
	}
	runners := []runner{
		{"Exec", func(ctx context.Context) error {
			_, err := engine.ExecContext(ctx, p, db, engine.Options{})
			return err
		}},
		{"ExecIterator", func(ctx context.Context) error {
			_, err := engine.ExecIteratorContext(ctx, p, db, engine.Options{})
			return err
		}},
	}
	for _, r := range runners {
		if err := r.run(pre); !errors.Is(err, engine.ErrCanceled) {
			t.Fatalf("%s pre-canceled: err = %v, want ErrCanceled", r.name, err)
		}
		ctx, cancelMid := context.WithCancel(context.Background())
		timer := time.AfterFunc(3*time.Millisecond, cancelMid)
		err := r.run(ctx)
		timer.Stop()
		cancelMid()
		if !errors.Is(err, engine.ErrCanceled) {
			t.Fatalf("%s mid-run: err = %v, want ErrCanceled", r.name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s mid-run: err = %v, want errors.Is(err, context.Canceled)", r.name, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("goroutines leaked after cancellations: %d before, %d after", base, n)
	}
}

// TestMemBudget checks Options.MaxBytes aborts both plan executors with
// ErrMemLimit, and that a roomy budget reports materialized bytes in
// Stats.
func TestMemBudget(t *testing.T) {
	q, db := figure9(t, 4)
	p := buildPlan(t, core.MethodBucketElimination, q)

	ok, err := engine.Exec(p, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok.Stats.Bytes <= 0 {
		t.Fatal("successful run reports no materialized bytes")
	}

	tight := engine.Options{MaxBytes: 256}
	if _, err := engine.Exec(p, db, tight); !errors.Is(err, engine.ErrMemLimit) {
		t.Fatalf("Exec: err = %v, want ErrMemLimit", err)
	}
	if _, err := engine.ExecIterator(p, db, tight); !errors.Is(err, engine.ErrMemLimit) {
		t.Fatalf("ExecIterator: err = %v, want ErrMemLimit", err)
	}

	// A budget above the run's appetite changes nothing.
	roomy, err := engine.Exec(p, db, engine.Options{MaxBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if !roomy.Rel.Equal(ok.Rel) || roomy.Stats.Bytes != ok.Stats.Bytes {
		t.Fatal("roomy budget perturbed the result or its stats")
	}
}

// TestStatsBytesCacheReplay checks cache hits replay the memoized
// subtree's byte counts, keeping cache-on and cache-off Stats.Bytes
// identical.
func TestStatsBytesCacheReplay(t *testing.T) {
	q, db := figure9(t, 4)
	p := buildPlan(t, core.MethodEarlyProjection, q)

	bare, err := engine.Exec(p, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := engine.NewCache(0)
	cold, err := engine.Exec(p, db, engine.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := engine.Exec(p, db, engine.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CacheHits == 0 {
		t.Fatal("warm run had no cache hits")
	}
	if cold.Stats.Bytes != bare.Stats.Bytes || warm.Stats.Bytes != bare.Stats.Bytes {
		t.Fatalf("Stats.Bytes diverges: bare=%d cold=%d warm=%d",
			bare.Stats.Bytes, cold.Stats.Bytes, warm.Stats.Bytes)
	}
	if cold.Stats.PeakBytes != bare.Stats.PeakBytes || warm.Stats.PeakBytes != bare.Stats.PeakBytes {
		t.Fatalf("Stats.PeakBytes diverges: bare=%d cold=%d warm=%d",
			bare.Stats.PeakBytes, cold.Stats.PeakBytes, warm.Stats.PeakBytes)
	}

	// The EXPLAIN ANALYZE memory and tuple trailers are rendered from the
	// replayed counters, so a fully warmed cache must print the same
	// lines as a cache-off run (the tree differs: hits are marked).
	offOut, err := engine.Explain(p, db, engine.Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	onOut, err := engine.Explain(p, db, engine.Options{Cache: cache}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"memory:", "tuples:"} {
		offLine, onLine := lineWithPrefix(offOut, prefix), lineWithPrefix(onOut, prefix)
		if offLine == "" || offLine != onLine {
			t.Fatalf("EXPLAIN ANALYZE %q line diverges under cache replay:\noff: %s\non:  %s",
				prefix, offLine, onLine)
		}
	}
}

func lineWithPrefix(s, prefix string) string {
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}

// TestSubtreePanicIsolation injects a panic into the join kernel under the
// plan walker's subtree evaluation and checks it is recovered at the run
// boundary and surfaces as ErrInternal, with the partial Result the other
// failures carry, instead of unwinding into the caller.
func TestSubtreePanicIsolation(t *testing.T) {
	defer faultinject.Disable()
	q, db := figure9(t, 4)
	p := buildPlan(t, core.MethodBucketElimination, q)
	if err := faultinject.Enable("join.panic=1", 11); err != nil {
		t.Fatal(err)
	}
	res, err := engine.Exec(p, db, engine.Options{})
	if !errors.Is(err, engine.ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	if res == nil || res.Rel != nil || res.Stats.Elapsed <= 0 {
		t.Fatalf("panicked run's result = %+v, want non-nil with no relation and Elapsed stamped", res)
	}
	faultinject.Disable()
	res, err = engine.Exec(p, db, engine.Options{})
	if err != nil {
		t.Fatalf("after Disable: %v", err)
	}
	oracle, err := engine.EvalOracle(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rel.Equal(oracle) {
		t.Fatal("result differs from oracle after fault injection was disabled")
	}
}

// TestExecResilientDegradation is the end-to-end acceptance check of the
// resource governor: on a Figure-9-style workload, a straightforward plan
// run under a byte budget too tight for early projection degrades down
// the explicit ladder and returns, via the bucket-elimination rung, a
// result differentially checked against the oracle; and with a panic
// injected into the join kernel, the walker's failure is ErrInternal —
// degradable — so resilience.DegradationLadder rescues the run on the
// first executor that does not join through that kernel.
func TestExecResilientDegradation(t *testing.T) {
	defer faultinject.Disable()
	q, db := figure9(t, 4)

	// Calibrate a budget from the rungs' own appetites: the streaming rung
	// and early projection must blow it, bucket elimination must fit. On
	// 3-COLOR the streaming rung skips its sweeps and holds only live
	// bytes, so what it is handed here is the one plan whose live bytes are
	// large: the reordering plan, which projects nothing away.
	streamPlan := buildPlan(t, core.MethodReordering, q)
	streamed, err := engine.ExecStream(streamPlan, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	early, err := engine.Exec(buildPlan(t, core.MethodEarlyProjection, q), db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bucketPlan := buildPlan(t, core.MethodBucketElimination, q)
	bucket, err := engine.Exec(bucketPlan, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	budget := min(early.Stats.Bytes, streamed.Stats.PeakBytes) * 9 / 10
	if bucket.Stats.Bytes > budget {
		t.Fatalf("workload does not separate the methods: bucket=%dB early=%dB stream peak=%dB",
			bucket.Stats.Bytes, early.Stats.Bytes, streamed.Stats.PeakBytes)
	}
	if _, err := engine.Exec(bucketPlan, db, engine.Options{MaxBytes: budget}); err != nil {
		t.Fatalf("calibration: bucket elimination does not fit the budget %d: %v", budget, err)
	}

	// The straightforward plan's intermediates dwarf early projection's,
	// so the run degrades through every rung of the explicit stream →
	// earlyprojection → bucketelimination ladder on the budget alone.
	opt := engine.Options{MaxBytes: budget}
	stream, _ := resilience.Strategy(core.MethodStream, q, streamPlan)
	ladder := append([]engine.Fallback{stream}, resilience.PlanLadder(q, nil)...)
	res, err := engine.ExecResilient(context.Background(), buildPlan(t, core.MethodStraightforward, q),
		ladder, db, opt)
	if err != nil {
		t.Fatalf("ExecResilient failed down the whole ladder: %v\nattempts: %+v",
			err, res.Stats.Attempts)
	}

	at := res.Stats.Attempts
	if len(at) != 4 {
		t.Fatalf("attempts = %+v, want 4 (given, stream, earlyprojection, bucketelimination)", at)
	}
	if at[0].Method != "given" || !errorsContains(at[0].Err, "memory") {
		t.Fatalf("first attempt = %+v, want the given plan failing on the byte budget", at[0])
	}
	if at[1].Method != string(core.MethodStream) || !errorsContains(at[1].Err, "memory") {
		t.Fatalf("second attempt = %+v, want the stream rung failing on the byte budget", at[1])
	}
	if at[2].Method != string(core.MethodEarlyProjection) || !errorsContains(at[2].Err, "memory") {
		t.Fatalf("third attempt = %+v, want early projection failing on the byte budget", at[2])
	}
	if last := at[3]; last.Method != string(core.MethodBucketElimination) || last.Err != "" {
		t.Fatalf("last attempt = %+v, want bucket elimination succeeding", at[3])
	}

	oracle, err := engine.EvalOracle(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rel.Equal(oracle) {
		t.Fatalf("degraded result differs from oracle (%d vs %d rows)",
			res.Rel.Len(), oracle.Len())
	}

	// Every join of the given plan now panics. The default ladder for this
	// wide query leads with the worst-case-optimal rung, which never calls
	// the join kernel and fits the byte budget outright: the run is rescued
	// in one fallback instead of degrading through the materializing
	// methods.
	if err := faultinject.Enable("join.panic=1", 23); err != nil {
		t.Fatal(err)
	}
	res2, err := engine.ExecResilient(context.Background(), buildPlan(t, core.MethodStraightforward, q),
		resilience.DegradationLadder(q, nil), db, opt)
	if err != nil {
		t.Fatalf("ExecResilient with default ladder: %v", err)
	}
	at2 := res2.Stats.Attempts
	if len(at2) != 2 || at2[1].Method != string(core.MethodWCOJ) || at2[1].Err != "" {
		t.Fatalf("default-ladder attempts = %+v, want [given, wcoj(success)]", at2)
	}
	if !errors.Is(res2.FirstError(), engine.ErrInternal) {
		t.Fatalf("given attempt failed with %v, want the injected panic as ErrInternal", res2.FirstError())
	}
	if !res2.Rel.Equal(oracle) {
		t.Fatalf("wcoj-rescued result differs from oracle (%d vs %d rows)",
			res2.Rel.Len(), oracle.Len())
	}
}

// errorsContains reports whether the recorded attempt error mentions sub.
func errorsContains(errStr, sub string) bool {
	return errStr != "" && strings.Contains(errStr, sub)
}
