package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/faultinject"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/plan"
)

// spillOpts arms spilling under a tmpdir owned by the test.
func spillOpts(t *testing.T, base Options) Options {
	t.Helper()
	base.SpillDir = t.TempDir()
	return base
}

// TestSpillDifferentialFigureWorkloads checks that merely arming the
// spill directory changes no answer and, with no memory pressure, writes
// no file, on every Figure-6–9 workload. A spill-armed Exec runs the plan
// on the pull pipeline without the pushdown phase, so its answer is the
// plan walker's and its stats are ExecIterator's on the same plan; a
// spill-armed ExecStream is the same run as an unarmed one.
func TestSpillDifferentialFigureWorkloads(t *testing.T) {
	for _, w := range figureWorkloads(t) {
		for _, free := range [][]cq.Var{instance.BooleanFree(w.g), {0, 1}} {
			q, err := instance.ColorQuery(w.g, free)
			if err != nil {
				t.Fatal(err)
			}
			db := instance.ColorDatabase(3)
			for _, m := range core.Methods {
				t.Run(fmt.Sprintf("%s/free=%d/%s", w.name, len(free), m), func(t *testing.T) {
					p, err := core.BuildPlan(m, q, nil)
					if err != nil {
						t.Fatal(err)
					}
					plain, err := Exec(p, db, Options{})
					if err != nil {
						t.Fatal(err)
					}
					spilled, err := Exec(p, db, spillOpts(t, Options{}))
					if err != nil {
						t.Fatalf("Exec with spill armed: %v", err)
					}
					if !plain.Rel.Equal(spilled.Rel) {
						t.Fatalf("spill-armed Exec answer differs (%d vs %d rows)",
							spilled.Rel.Len(), plain.Rel.Len())
					}
					iter, err := ExecIterator(p, db, Options{})
					if err != nil {
						t.Fatal(err)
					}
					assertSameNonByteStats(t, &iter.Stats, &spilled.Stats)
					if spilled.Stats.PeakBytes == 0 || spilled.Stats.PeakBytes != iter.Stats.PeakBytes ||
						spilled.Stats.Bytes != iter.Stats.Bytes {
						t.Fatalf("spill-armed unbudgeted Exec reports bytes=%d peak=%d, ExecIterator bytes=%d peak=%d",
							spilled.Stats.Bytes, spilled.Stats.PeakBytes, iter.Stats.Bytes, iter.Stats.PeakBytes)
					}
					if spilled.Stats.SpilledBytes != 0 || spilled.Stats.SpillFiles != 0 {
						t.Fatalf("no pressure but spill traffic: %d bytes, %d files",
							spilled.Stats.SpilledBytes, spilled.Stats.SpillFiles)
					}

					sPlain, err := ExecStream(p, db, Options{})
					if err != nil {
						t.Fatal(err)
					}
					sSpill, err := ExecStream(p, db, spillOpts(t, Options{}))
					if err != nil {
						t.Fatalf("ExecStream with spill armed: %v", err)
					}
					if !sPlain.Rel.Equal(sSpill.Rel) {
						t.Fatalf("spill-armed stream answer differs (%d vs %d rows)",
							sSpill.Rel.Len(), sPlain.Rel.Len())
					}
					assertSameNonByteStats(t, &sPlain.Stats, &sSpill.Stats)
					if sSpill.Stats.SpilledBytes != 0 {
						t.Fatalf("no pressure but stream spilled %d bytes", sSpill.Stats.SpilledBytes)
					}
				})
			}
		}
	}
}

// assertSameNonByteStats compares the execution counters that must not
// depend on whether a spill directory is armed.
func assertSameNonByteStats(t *testing.T, a, b *Stats) {
	t.Helper()
	if a.Tuples != b.Tuples || a.MaxRows != b.MaxRows || a.MaxArity != b.MaxArity ||
		a.Joins != b.Joins || a.Projections != b.Projections ||
		a.MaterializedTuples != b.MaterializedTuples || a.ReducedTuples != b.ReducedTuples {
		t.Fatalf("non-byte stats differ with spill armed:\noff: %+v\non:  %+v", a, b)
	}
}

// spillPressureCase finds a memory budget under which the plain run dies
// with ErrMemLimit while the spill-armed run completes with real disk
// traffic, and returns that budget and run (0, nil when no candidate
// demonstrates it). It walks the candidate budgets in order; exec is the
// executor under test.
func spillPressureCase(t *testing.T, exec func(Options) (*Result, error), budgets []int64) (int64, *Result) {
	t.Helper()
	for _, budget := range budgets {
		if budget < 256 {
			break
		}
		_, err := exec(Options{MaxBytes: budget})
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrMemLimit) {
			t.Fatalf("budget %d: unexpected failure kind: %v", budget, err)
		}
		res, err := exec(spillOpts(t, Options{MaxBytes: budget}))
		if err != nil {
			if errors.Is(err, ErrMemLimit) {
				continue // too tight even for out-of-core; walk on
			}
			t.Fatalf("budget %d with spill: %v", budget, err)
		}
		if res.Stats.SpilledBytes > 0 {
			return budget, res
		}
	}
	return 0, nil
}

// divisorBudgets walks down from a peak by integer divisors: the
// pipeline's breakers can shed almost all resident state to disk.
func divisorBudgets(peak int64) []int64 {
	var budgets []int64
	for _, div := range []int64{2, 3, 4, 6, 8, 12, 16, 24, 32} {
		budgets = append(budgets, peak/div)
	}
	return budgets
}

// TestStreamSpillUnderPressure is the tentpole's end-to-end acceptance
// on the streaming engine: an over-budget run that fails with ErrMemLimit
// in memory completes once spilling is armed, produces the oracle answer,
// reports spill traffic, and keeps peak live bytes within the budget.
func TestStreamSpillUnderPressure(t *testing.T) {
	g := workloadGraph(t)
	q, err := instance.ColorQuery(g, []cq.Var{0, 1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	db := instance.ColorDatabase(3)
	oracle, err := EvalOracle(q, db)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.BuildPlan(core.MethodStream, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, err := ExecStream(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	budget, res := spillPressureCase(t, func(o Options) (*Result, error) {
		return ExecStream(p, db, o)
	}, divisorBudgets(base.Stats.PeakBytes))
	if res == nil {
		t.Fatalf("no budget under peak %d demonstrates fails-without/succeeds-with; workload too small", base.Stats.PeakBytes)
	}
	if !res.Rel.Equal(oracle) {
		t.Fatalf("spilled stream answer differs from oracle (%d vs %d rows)", res.Rel.Len(), oracle.Len())
	}
	if res.Stats.SpilledBytes <= 0 || res.Stats.SpillFiles <= 0 {
		t.Fatalf("run rescued by spilling reported no spill traffic: %+v", res.Stats)
	}
	if res.Stats.Bytes > budget {
		t.Fatalf("peak live bytes %d over budget %d despite spilling", res.Stats.Bytes, budget)
	}
}

// TestExecSpillUnderPressure is the same acceptance for a plan run armed
// through Exec, on the two projection-pushed plan shapes: under a quarter
// of the unarmed pipeline's peak the in-memory run (the plan walker) dies
// with ErrMemLimit, the armed one returns the oracle's answer with disk
// traffic and peak residency within the budget — and some budget must
// demonstrate fails-without/succeeds-with, or the test fails.
func TestExecSpillUnderPressure(t *testing.T) {
	g := workloadGraph(t)
	q, err := instance.ColorQuery(g, []cq.Var{0, 1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	db := instance.ColorDatabase(3)
	oracle, err := EvalOracle(q, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []core.Method{core.MethodBucketElimination, core.MethodEarlyProjection} {
		t.Run(string(m), func(t *testing.T) {
			p, err := core.BuildPlan(m, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			base, err := ExecIterator(p, db, Options{})
			if err != nil {
				t.Fatal(err)
			}
			peak := base.Stats.PeakBytes
			exec := func(o Options) (*Result, error) { return Exec(p, db, o) }
			quarter, err := exec(spillOpts(t, Options{MaxBytes: peak / 4}))
			if err != nil {
				t.Fatalf("spill-armed Exec under peak/4 = %d: %v", peak/4, err)
			}
			budget, res := spillPressureCase(t, exec, divisorBudgets(peak))
			if res == nil {
				t.Fatalf("no budget under peak %d demonstrates fails-without/succeeds-with", peak)
			}
			for _, c := range []struct {
				budget int64
				res    *Result
			}{{peak / 4, quarter}, {budget, res}} {
				if !c.res.Rel.Equal(oracle) {
					t.Fatalf("budget %d: spilled Exec answer differs from oracle (%d vs %d rows)",
						c.budget, c.res.Rel.Len(), oracle.Len())
				}
				if c.res.Stats.SpilledBytes <= 0 || c.res.Stats.SpillFiles <= 0 {
					t.Fatalf("budget %d: no spill traffic reported: %+v", c.budget, c.res.Stats)
				}
				if c.res.Stats.PeakBytes > c.budget {
					t.Fatalf("budget %d: peak residency %d over budget despite spilling",
						c.budget, c.res.Stats.PeakBytes)
				}
			}
		})
	}
}

// workloadGraph is the shared over-budget workload: an augmented ladder
// large enough that the streaming run's resident state dominates tiny
// base relations but small enough for the oracle.
func workloadGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.AugmentedLadder(5)
}

// TestRetryWithSpillLadder checks the resilience rung: with SpillDir set
// and a budget the in-memory run blows, ExecResilientStrategy re-runs the
// same strategy with spilling armed, records it as "<rung>+spill" in
// Stats.Attempts, and succeeds without falling down the method ladder.
func TestRetryWithSpillLadder(t *testing.T) {
	g := workloadGraph(t)
	q, err := instance.ColorQuery(g, []cq.Var{0, 1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	db := instance.ColorDatabase(3)
	p, err := core.BuildPlan(core.MethodStream, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, err := ExecStream(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	budget, _ := spillPressureCase(t, func(o Options) (*Result, error) {
		return ExecStream(p, db, o)
	}, divisorBudgets(base.Stats.PeakBytes))
	if budget == 0 {
		t.Fatal("could not find a demonstrating budget")
	}
	opt := spillOpts(t, Options{MaxBytes: budget})
	// Inline equivalents of resilience.Strategy / PlanLadder (that
	// package imports engine, so the in-package test rebuilds the rungs).
	streamRung := Fallback{Name: "stream", Spills: true, Run: func(ctx context.Context, db cq.Database, o Options) (*Result, error) {
		return ExecStreamContext(ctx, p, db, o)
	}}
	ladder := []Fallback{
		PlanRung("earlyprojection", func() (plan.Node, error) { return core.EarlyProjection(q) }),
		PlanRung("bucketelimination", func() (plan.Node, error) { return core.BucketElimination(q, nil) }),
	}
	res, err := ExecResilientStrategy(context.Background(), streamRung, ladder, db, opt)
	if err != nil {
		t.Fatalf("resilient run with spill rung: %v", err)
	}
	if len(res.Stats.Attempts) != 2 {
		t.Fatalf("want exactly [stream, stream+spill] attempts, got %+v", res.Stats.Attempts)
	}
	if res.Stats.Attempts[0].Method != "stream" || res.Stats.Attempts[0].Err == "" {
		t.Fatalf("first attempt should be the failed in-memory stream run, got %+v", res.Stats.Attempts[0])
	}
	if res.Stats.Attempts[1].Method != "stream+spill" || res.Stats.Attempts[1].Err != "" {
		t.Fatalf("second attempt should be the succeeding spill retry, got %+v", res.Stats.Attempts[1])
	}
	if res.Stats.SpilledBytes <= 0 {
		t.Fatalf("spill retry reported no spill traffic: %+v", res.Stats)
	}
}

// TestSpillErrClassification checks the new failure domain's typing: an
// injected spill write failure surfaces as ErrSpill, which aliases
// ErrInternal (the ladder treats it as infrastructure), and
// a tiny disk quota surfaces the same way via ErrSpillFull.
func TestSpillErrClassification(t *testing.T) {
	g := workloadGraph(t)
	q, err := instance.ColorQuery(g, []cq.Var{0, 1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	db := instance.ColorDatabase(3)
	p, err := core.BuildPlan(core.MethodStream, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, err := ExecStream(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	budget, _ := spillPressureCase(t, func(o Options) (*Result, error) {
		return ExecStream(p, db, o)
	}, divisorBudgets(base.Stats.PeakBytes))
	if budget == 0 {
		t.Fatal("could not find a demonstrating budget")
	}

	t.Run("write-fault", func(t *testing.T) {
		if err := faultinject.Enable("spill.write.fail=1", 1); err != nil {
			t.Fatal(err)
		}
		defer faultinject.Disable()
		_, err := ExecStream(p, db, spillOpts(t, Options{MaxBytes: budget}))
		if !errors.Is(err, ErrSpill) {
			t.Fatalf("got %v, want ErrSpill", err)
		}
		if !errors.Is(err, ErrInternal) {
			t.Fatalf("ErrSpill must alias ErrInternal, got %v", err)
		}
	})

	t.Run("disk-quota", func(t *testing.T) {
		opt := spillOpts(t, Options{MaxBytes: budget})
		opt.MaxSpillBytes = 64 // absurdly small: first spill exhausts it
		_, err := ExecStream(p, db, opt)
		if !errors.Is(err, ErrSpill) {
			t.Fatalf("got %v, want ErrSpill from disk exhaustion", err)
		}
	})
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
		run := func(o Options) (*Result, error) {
			if m == core.MethodStream {
				return ExecStream(p, db, o)
			}
			return Exec(p, db, o)
		}
		const budget = 4096
		_, err = run(Options{MaxBytes: budget})
		if !errors.Is(err, ErrMemLimit) {
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

// TestExplainAnalyzeSpillLine checks EXPLAIN ANALYZE surfaces the spill
// trailer when and only when a run went out of core.
func TestExplainAnalyzeSpillLine(t *testing.T) {
	g := workloadGraph(t)
	q, err := instance.ColorQuery(g, []cq.Var{0, 1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	db := instance.ColorDatabase(3)
	p, err := core.BuildPlan(core.MethodStream, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, err := ExecStream(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	budget, _ := spillPressureCase(t, func(o Options) (*Result, error) {
		return ExecStream(p, db, o)
	}, divisorBudgets(base.Stats.PeakBytes))
	if budget == 0 {
		t.Fatal("could not find a demonstrating budget")
	}
	out, err := ExplainStream(p, db, spillOpts(t, Options{MaxBytes: budget}), true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "spill: ") {
		t.Fatalf("spilled EXPLAIN ANALYZE lacks the spill trailer:\n%s", out)
	}
	// A spill-armed plan Explain prints the operator tree that ran — the
	// pull pipeline's, pushdown off — not the plan tree it did not walk.
	armed, err := Explain(p, db, spillOpts(t, Options{MaxBytes: budget}), true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(armed, "pull pipeline") || !strings.Contains(armed, "spill: ") {
		t.Fatalf("spill-armed Explain ANALYZE is not the spilled pipeline's tree:\n%s", armed)
	}
	dry, err := ExplainStream(p, db, spillOpts(t, Options{}), true)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(dry, "spill: ") {
		t.Fatalf("unspilled EXPLAIN ANALYZE shows a spill trailer:\n%s", dry)
	}
}
