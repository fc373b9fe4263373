package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"projpush/internal/engine"
	"projpush/internal/faultinject"
	"projpush/internal/graph"
	"projpush/internal/instance"

	"math/rand"
	"projpush/internal/core"
	"projpush/internal/cq"
)

// robustConfig is a small sweep configuration for fault tests.
func robustConfig() Config {
	return Config{Seed: 3, Reps: 3, Timeout: 20 * time.Second}
}

// TestGeneratorFailureSpoilsOnlyItsRep feeds runPoint a generator that
// fails on one repetition and checks the point still completes: the
// spoiled rep is annotated "generator" on every cell, the other reps
// measure normally, and no error aborts the series.
func TestGeneratorFailureSpoilsOnlyItsRep(t *testing.T) {
	cfg := robustConfig().withDefaults()
	cfg.Methods = []core.Method{core.MethodEarlyProjection, core.MethodBucketElimination}
	g := graph.Ladder(4)
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	db := instance.ColorDatabase(3)

	row, err := runPoint(1, cfg, func(rep int, rng *rand.Rand) (*cq.Query, cq.Database, error) {
		if rep == 1 {
			return nil, nil, fmt.Errorf("synthetic generator failure")
		}
		return q, db, nil
	})
	if err != nil {
		t.Fatalf("generator failure aborted the point: %v", err)
	}
	for _, c := range row.Cells {
		if got := len(c.Sample.Durations); got != cfg.Reps-1 {
			t.Fatalf("cell %s measured %d reps, want %d", c.Method, got, cfg.Reps-1)
		}
		if c.Failures["generator"] != 1 {
			t.Fatalf("cell %s failures = %v, want one 'generator'", c.Method, c.Failures)
		}
		if c.Sample.Timeouts != 1 {
			t.Fatalf("cell %s timeouts = %d, want 1", c.Method, c.Sample.Timeouts)
		}
	}
}

// TestExperimentWorkerPanicIsolation injects panics into the experiment
// worker pool and checks the sweep completes with every repetition
// accounted for — measured or annotated — instead of crashing.
func TestExperimentWorkerPanicIsolation(t *testing.T) {
	defer faultinject.Disable()
	if err := faultinject.Enable("experiment.panic=0.5", 17); err != nil {
		t.Fatal(err)
	}
	cfg := robustConfig()
	cfg.Workers = 4
	s, err := StructuredScaling(cfg, FamilyLadder, []int{4, 5})
	if err != nil {
		t.Fatalf("fault-injected sweep aborted: %v", err)
	}
	panics := 0
	for _, r := range s.Rows {
		for _, c := range r.Cells {
			if got := len(c.Sample.Durations) + c.Sample.Timeouts; got != cfg.Reps {
				t.Fatalf("x=%g cell %s accounts for %d reps, want %d",
					r.X, c.Method, got, cfg.Reps)
			}
			panics += c.Failures["panic"]
		}
	}
	if panics == 0 {
		t.Fatal("no injected panic reached a cell — injection not exercised")
	}
}

// TestMembudgetSweepAnnotatesEveryRep sweeps the Figure-9 family under a
// byte budget sized below the straightforward method's appetite: every
// repetition fails and is annotated "membudget", not lumped in as a plain
// timeout.
func TestMembudgetSweepAnnotatesEveryRep(t *testing.T) {
	g := graph.AugmentedCircularLadder(4)
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	sfPlan, err := core.BuildPlan(core.MethodStraightforward, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := engine.Exec(sfPlan, instance.ColorDatabase(3), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}

	cfg := robustConfig()
	cfg.Methods = []core.Method{core.MethodStraightforward}
	cfg.MaxBytes = sf.Stats.Bytes / 2
	s, err := StructuredScaling(cfg, FamilyAugmentedCircularLadder, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	c := s.Rows[0].Cells[0]
	if c.Failures["membudget"] != cfg.withDefaults().Reps {
		t.Fatalf("failures = %v, want every rep annotated membudget", c.Failures)
	}
	if ann := c.annotation(); !strings.Contains(ann, "membudget") {
		t.Fatalf("annotation %q lacks the membudget breakdown", ann)
	}
}

// TestFailureKinds pins the classification of execution errors into the
// per-kind annotations of Cell.Failures, wrapped or bare.
func TestFailureKinds(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{engine.ErrRowLimit, "rowcap"},
		{engine.ErrMemLimit, "membudget"},
		{engine.ErrTimeout, "timeout"},
		{engine.ErrCanceled, "canceled"},
		{engine.ErrInternal, "panic"},
		{fmt.Errorf("wrapped: %w", engine.ErrMemLimit), "membudget"},
		{fmt.Errorf("unclassified"), "error"},
	}
	for _, c := range cases {
		if got := failureKind(c.err); got != c.want {
			t.Errorf("failureKind(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}
