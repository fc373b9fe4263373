package engine_test

import (
	"context"
	"errors"
	"fmt"
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

// checkCancellation cancels exec before the run and mid-run, and checks
// the failure is ErrCanceled (matching context.Canceled) with no
// goroutine leak — the -race run in `make test` sweeps this. The run must
// outlast the 3 ms cancel; fault, when set, is enabled for the mid-run
// call only.
func checkCancellation(t *testing.T, exec engine.Fallback, db cq.Database, opt engine.Options, fault string) {
	t.Helper()
	defer faultinject.Disable()
	base := runtime.NumGoroutine()

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := exec.Run(pre, db, opt); !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("pre-canceled: err = %v, want ErrCanceled", err)
	}
	if fault != "" {
		if err := faultinject.Enable(fault, 1); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancelMid := context.WithCancel(context.Background())
	timer := time.AfterFunc(3*time.Millisecond, cancelMid)
	_, err := exec.Run(ctx, db, opt)
	timer.Stop()
	cancelMid()
	faultinject.Disable()
	if !errors.Is(err, engine.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run: err = %v, want ErrCanceled matching context.Canceled", err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("goroutines leaked after cancellations: %d before, %d after", base, n)
	}
}

// TestExecContextCancellation cancels the plan walker on the
// straightforward plan of an order-12 Figure-9 ladder.
func TestExecContextCancellation(t *testing.T) {
	q, db := figure9(t, 12)
	checkCancellation(t, engine.NewWalker(buildPlan(t, core.MethodStraightforward, q)), db, engine.Options{}, "")
}

// TestStreamCancellation cancels the pull pipeline mid-stream. It fuses
// projection into its scans, so it needs order 14 to outlast the cancel.
func TestStreamCancellation(t *testing.T) {
	q, db := figure9(t, 14)
	checkCancellation(t, engine.NewPipeline(buildPlan(t, core.MethodStraightforward, q)), db, engine.Options{}, "")
}

// TestYannakakisCancellation cancels the full reducer with kernel latency
// injected, so the mid-run cancel lands inside a semijoin.
func TestYannakakisCancellation(t *testing.T) {
	q, db := figure9(t, 6)
	checkCancellation(t, engine.NewYannakakis(analyze(t, q)), db, engine.Options{}, "kernel.latency=2ms:1")
}

// TestWCOJCancellation cancels a full enumeration of the 3-colorings of
// C20 (about 10^6 rows) mid-intersection; the row cap is a backstop so a
// broken cancellation path fails typed instead of materializing the
// whole answer.
func TestWCOJCancellation(t *testing.T) {
	g := graph.Cycle(20)
	q, err := instance.ColorQuery(g, instance.EdgeVertices(g))
	if err != nil {
		t.Fatal(err)
	}
	checkCancellation(t, engine.NewWCOJ(analyze(t, q), 0), instance.ColorDatabase(3), engine.Options{MaxRows: 10_000_000}, "")
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
// run under a byte budget degrades down the plan ladder, every rung charged
// what it keeps alive — so early projection answers under a budget below
// everything it materializes, and under one too tight even for its live
// bytes the bucket-elimination rung does — each result differentially
// checked against the oracle; and with a panic injected into the join
// kernel, the walker's failure is ErrInternal — degradable — so
// resilience.DegradationLadder rescues the run on the first executor that
// does not join through that kernel.
func TestExecResilientDegradation(t *testing.T) {
	defer faultinject.Disable()
	q, db := figure9(t, 4)
	oracle, err := engine.EvalOracle(q, db)
	if err != nil {
		t.Fatal(err)
	}

	// Calibrate the budgets from the rungs' own appetites: what early
	// projection holds live on the pipeline, what it materializes in total
	// on the walker, and what bucket elimination holds live.
	earlyPlan := buildPlan(t, core.MethodEarlyProjection, q)
	earlyLive, err := engine.ExecStreamContext(context.Background(), earlyPlan, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	earlyTotal, err := engine.Exec(earlyPlan, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bucketLive, err := engine.ExecStreamContext(context.Background(), buildPlan(t, core.MethodBucketElimination, q), db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !(bucketLive.Stats.PeakBytes < earlyLive.Stats.PeakBytes && earlyLive.Stats.PeakBytes < earlyTotal.Stats.Bytes) {
		t.Fatalf("workload does not separate the rungs: bucket live=%dB early live=%dB early total=%dB",
			bucketLive.Stats.PeakBytes, earlyLive.Stats.PeakBytes, earlyTotal.Stats.Bytes)
	}
	given := buildPlan(t, core.MethodStraightforward, q)
	var res *engine.Result
	for _, tc := range []struct {
		name   string
		budget int64
		rungs  []string
	}{
		// Over early projection's live bytes, under its cumulative ones: a
		// rung charged like the walker dies here.
		{"live bytes fit", (earlyLive.Stats.PeakBytes + earlyTotal.Stats.Bytes) / 2,
			[]string{"given", "earlyprojection"}},
		{"only bucket elimination fits", (bucketLive.Stats.PeakBytes + earlyLive.Stats.PeakBytes) / 2,
			[]string{"given", "earlyprojection", "bucketelimination"}},
	} {
		res, err = engine.ExecResilientStrategy(context.Background(), givenRung(given), resilience.PlanLadder(q, nil), db,
			engine.Options{MaxBytes: tc.budget})
		if err != nil {
			t.Fatalf("%s: ExecResilientStrategy failed down the whole ladder under %d bytes: %v\nattempts: %+v",
				tc.name, tc.budget, err, res.Stats.Attempts)
		}
		at := res.Stats.Attempts
		if len(at) != len(tc.rungs) {
			t.Fatalf("%s: attempts = %+v, want %v", tc.name, at, tc.rungs)
		}
		for i, a := range at {
			last := i == len(at)-1
			if a.Method != tc.rungs[i] || last != (a.Err == "") || !last && !errorsContains(a.Err, "memory") {
				t.Fatalf("%s: attempt %d = %+v, want %s failing on the byte budget unless it is the last", tc.name, i, a, tc.rungs[i])
			}
		}
		// The answering rung ran on the pipeline: its bytes are its peak.
		if res.Stats.Bytes != res.Stats.PeakBytes || res.Stats.PeakBytes > tc.budget {
			t.Fatalf("%s: answering rung reports bytes=%d peak=%d under budget %d", tc.name, res.Stats.Bytes, res.Stats.PeakBytes, tc.budget)
		}
		if !res.Rel.Equal(oracle) {
			t.Fatalf("%s: degraded result differs from oracle (%d vs %d rows)", tc.name, res.Rel.Len(), oracle.Len())
		}
	}
	opt := engine.Options{MaxBytes: bucketLive.Stats.PeakBytes}

	// Every join of the given plan now panics. The default ladder for this
	// wide query leads with the worst-case-optimal rung, which never calls
	// the join kernel and fits the byte budget outright: the run is rescued
	// in one fallback instead of degrading through the materializing
	// methods.
	if err := faultinject.Enable("join.panic=1", 23); err != nil {
		t.Fatal(err)
	}
	res2, err := engine.ExecResilientStrategy(context.Background(), givenRung(given), resilience.DegradationLadder(analyze(t, q), nil), db, opt)
	if err != nil {
		t.Fatalf("ExecResilientStrategy with default ladder: %v", err)
	}
	at2 := res2.Stats.Attempts
	if len(at2) != 2 || at2[1].Method != string(core.MethodWCOJ) || at2[1].Err != "" {
		t.Fatalf("default-ladder attempts = %+v, want [given, wcoj(success)]", at2)
	}
	if !errorsContains(at2[0].Err, engine.ErrInternal.Error()) {
		t.Fatalf("given attempt failed with %q, want the injected panic as ErrInternal", at2[0].Err)
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

// workloadGraph is the shared over-budget workload: an augmented ladder
// large enough that the streaming run's resident state dominates tiny
// base relations but small enough for the oracle.
func workloadGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.AugmentedLadder(5)
}

// TestMemLimitMessageCarriesNumbers pins the satellite contract: the
// ErrMemLimit failure names the budget and the charge that blew it, for
// both the materializing and the streaming accounting paths.
func TestMemLimitMessageCarriesNumbers(t *testing.T) {
	g := workloadGraph(t)
	q, err := instance.ColorQuery(g, []cq.Var{0, 1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	db := instance.ColorDatabase(3)
	for _, m := range []core.Method{core.MethodBucketElimination, core.MethodStream} {
		p, err := core.BuildPlan(m, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		run := func(o engine.Options) (*engine.Result, error) {
			if m == core.MethodStream {
				return engine.ExecStreamContext(context.Background(), p, db, o)
			}
			return engine.Exec(p, db, o)
		}
		const budget = 4096
		_, err = run(engine.Options{MaxBytes: budget})
		if !errors.Is(err, engine.ErrMemLimit) {
			t.Fatalf("%s: got %v, want ErrMemLimit", m, err)
		}
		msg := err.Error()
		if !strings.Contains(msg, fmt.Sprintf("budget %d", budget)) {
			t.Fatalf("%s: failure message lacks the budget: %q", m, msg)
		}
		if !strings.Contains(msg, "charge of ") {
			t.Fatalf("%s: failure message lacks the failed charge size: %q", m, msg)
		}
	}
}
