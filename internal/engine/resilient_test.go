package engine_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/plan"
	"projpush/internal/resilience"
)

// TestDegradableMatrix pins the sentinel classification that routes the
// degradation ladder: resource exhaustion and internal faults re-plan,
// caller-initiated stops and admission verdicts do not — and the
// classification must survive %w wrapping, since every engine layer
// annotates errors on the way up.
func TestDegradableMatrix(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"row limit", engine.ErrRowLimit, true},
		{"mem limit", engine.ErrMemLimit, true},
		{"internal", engine.ErrInternal, true},
		{"timeout", engine.ErrTimeout, false},
		{"canceled", engine.ErrCanceled, false},
		{"ctx deadline", context.DeadlineExceeded, false},
		{"ctx canceled", context.Canceled, false},
		{"over width", engine.ErrOverWidth, false},
		{"overloaded", engine.ErrOverloaded, false},
		{"unrelated", errors.New("disk on fire"), false},
	}
	for _, c := range cases {
		if got := engine.Degradable(c.err); got != c.want {
			t.Errorf("Degradable(%s) = %v, want %v", c.name, got, c.want)
		}
		if c.err == nil {
			continue
		}
		wrapped := fmt.Errorf("join node 3: %w", c.err)
		if got := engine.Degradable(wrapped); got != c.want {
			t.Errorf("Degradable(wrapped %s) = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestLadderExhaustion drives every rung into the same failure: with a
// one-row cap, no method can materialize anything, so the ladder must
// run out. The contract: the last rung's genuine error comes back (not a
// synthetic "ladder exhausted"), and Stats.Attempts records every rung
// tried, in order, each with its own failure.
func TestLadderExhaustion(t *testing.T) {
	g := graph.Complete(3)
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	db := instance.ColorDatabase(3)
	p, err := core.BuildPlan(core.MethodStraightforward, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := engine.Options{MaxRows: 1}
	res, err := engine.ExecResilientStrategy(context.Background(), givenRung(p), resilience.DegradationLadder(analyze(t, q), nil), db, opt)
	if !errors.Is(err, engine.ErrRowLimit) {
		t.Fatalf("exhausted ladder: err = %v, want ErrRowLimit", err)
	}
	if res == nil {
		t.Fatal("exhausted ladder must still return the last attempt's result")
	}
	wantRungs := []string{"given", string(core.MethodYannakakis), string(core.MethodEarlyProjection), string(core.MethodBucketElimination)}
	if len(res.Stats.Attempts) != len(wantRungs) {
		t.Fatalf("Attempts = %d, want %d: %+v", len(res.Stats.Attempts), len(wantRungs), res.Stats.Attempts)
	}
	for i, a := range res.Stats.Attempts {
		if a.Method != wantRungs[i] {
			t.Errorf("attempt %d method = %q, want %q", i, a.Method, wantRungs[i])
		}
		if a.Err == "" {
			t.Errorf("attempt %d (%s): no recorded failure on an exhausted ladder", i, a.Method)
		}
	}
}

// TestLadderSkipsBrokenRung: a rung whose plan construction fails is
// recorded with a "plan: " prefix and skipped — the ladder keeps the
// previous rung's result and error and continues to the next rung rather
// than aborting — wherever in the ladder it stands: first, directly after a
// failed lead, or last.
func TestLadderSkipsBrokenRung(t *testing.T) {
	g := graph.AugmentedLadder(5)
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	db := instance.ColorDatabase(3)
	p, err := core.BuildPlan(core.MethodStraightforward, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	broken := engine.PlanRung("broken", func() (plan.Node, error) { return nil, errors.New("no such method") })
	lead := engine.Fallback{Name: "lead", Run: func(context.Context, cq.Database, engine.Options) (*engine.Result, error) {
		return &engine.Result{}, fmt.Errorf("lead: %w", engine.ErrInternal)
	}}
	bucket := resilience.PlanLadder(q, nil)[1]
	// A cap the straightforward plan blows but bucket elimination does not.
	opt := engine.Options{MaxRows: 2000}
	for _, tc := range []struct {
		name    string
		ladder  []engine.Fallback
		rungs   []string
		wantErr error
	}{
		{"first", []engine.Fallback{broken, bucket}, []string{"given", "broken", "bucketelimination"}, nil},
		{"after the lead", []engine.Fallback{lead, broken, bucket}, []string{"given", "lead", "broken", "bucketelimination"}, nil},
		{"last", []engine.Fallback{broken}, []string{"given", "broken"}, engine.ErrRowLimit},
	} {
		res, err := engine.ExecResilientStrategy(context.Background(), givenRung(p), tc.ladder, db, opt)
		if !errors.Is(err, tc.wantErr) || res == nil {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
		}
		at := res.Stats.Attempts
		if len(at) != len(tc.rungs) {
			t.Fatalf("%s: attempts = %+v, want %v", tc.name, at, tc.rungs)
		}
		for i, a := range at {
			failed := a.Err != ""
			if a.Method != tc.rungs[i] || failed != (i < len(at)-1 || tc.wantErr != nil) {
				t.Errorf("%s: attempt %d = %+v, want %s", tc.name, i, a, tc.rungs[i])
			}
			if a.Method == "broken" && !strings.HasPrefix(a.Err, "plan: ") {
				t.Errorf("%s: broken rung err = %q, want 'plan: ' prefix", tc.name, a.Err)
			}
		}
		if tc.wantErr == nil && !res.Nonempty() {
			t.Errorf("%s: augmented ladder is 3-colorable: want NONEMPTY", tc.name)
		}
	}
}

// givenRung is the first rung of a resilient run of a bare plan: the plan
// on the walker, labelled "given" as the facade's ExecuteResilient does.
func givenRung(p plan.Node) engine.Fallback {
	f := engine.NewWalker(p)
	f.Name = "given"
	return f
}
