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
	res, err := engine.ExecResilient(context.Background(), p, resilience.DegradationLadder(q, nil), db, opt)
	if !errors.Is(err, engine.ErrRowLimit) {
		t.Fatalf("exhausted ladder: err = %v, want ErrRowLimit", err)
	}
	if res == nil {
		t.Fatal("exhausted ladder must still return the last attempt's result")
	}
	wantRungs := []string{"given", string(core.MethodYannakakis), string(core.MethodStream), string(core.MethodEarlyProjection), string(core.MethodBucketElimination)}
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
// recorded with a "plan: " prefix and the ladder continues to the next
// rung rather than aborting.
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
	ladder := []engine.Fallback{
		{Name: "broken", Build: func() (plan.Node, error) { return nil, errors.New("no such method") }},
		{Name: string(core.MethodBucketElimination), Build: func() (plan.Node, error) {
			return core.BucketElimination(q, nil)
		}},
	}
	// A cap the straightforward plan blows but bucket elimination does not.
	opt := engine.Options{MaxRows: 2000}
	res, err := engine.ExecResilient(context.Background(), p, ladder, db, opt)
	if err != nil {
		t.Fatalf("ladder with a working final rung: %v", err)
	}
	if len(res.Stats.Attempts) != 3 {
		t.Fatalf("Attempts = %+v, want given, broken, bucketelimination", res.Stats.Attempts)
	}
	if !strings.HasPrefix(res.Stats.Attempts[1].Err, "plan: ") {
		t.Errorf("broken rung err = %q, want 'plan: ' prefix", res.Stats.Attempts[1].Err)
	}
	if res.Stats.Attempts[2].Err != "" {
		t.Errorf("final rung err = %q, want success", res.Stats.Attempts[2].Err)
	}
	if !res.Nonempty() {
		t.Error("augmented ladder is 3-colorable: want NONEMPTY")
	}
}

// TestFirstErrorIsTheDirectPathsError: the server's breaker must see, for
// a run the ladder rescued, exactly the error a direct run of the leading
// strategy would have returned — as a value, under errors.Is. A spill
// failure is the case a message match gets wrong: ErrSpill aliases
// ErrInternal but does not contain its text.
func TestFirstErrorIsTheDirectPathsError(t *testing.T) {
	g := graph.AugmentedPath(4)
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	db := instance.ColorDatabase(3)
	dying := engine.Fallback{Name: "dying-disk", Run: func(context.Context, cq.Database, engine.Options) (*engine.Result, error) {
		return &engine.Result{}, fmt.Errorf("%w: write r0.spill: no space left on device", engine.ErrSpill)
	}}
	res, err := engine.ExecResilientStrategy(context.Background(), dying, resilience.PlanLadder(q, nil), db, engine.Options{})
	if err != nil || len(res.Stats.Attempts) != 2 {
		t.Fatalf("ladder should rescue the spill failure on the next rung: err %v, attempts %+v", err, res.Stats.Attempts)
	}
	if first := res.FirstError(); !errors.Is(first, engine.ErrSpill) || !errors.Is(first, engine.ErrInternal) {
		t.Fatalf("FirstError = %v, want the ErrSpill value (matching ErrInternal)", first)
	}
	healthy, _ := resilience.Strategy(core.MethodYannakakis, q, nil)
	res, err = engine.ExecResilientStrategy(context.Background(), healthy, nil, db, engine.Options{})
	if err != nil || res.FirstError() != nil {
		t.Fatalf("succeeding first attempt: err %v, FirstError %v", err, res.FirstError())
	}
	if (*engine.Result)(nil).FirstError() != nil {
		t.Fatal("a nil result has no first error")
	}
}
