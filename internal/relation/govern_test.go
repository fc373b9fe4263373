package relation

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"projpush/internal/faultinject"
)

// bigJoinInputs builds a join pair whose output has roughly
// n/dup * (dup)^2 rows, large enough to run for several milliseconds.
func bigJoinInputs(n, dup int) (*Relation, *Relation) {
	a := New([]Attr{0, 1})
	b := New([]Attr{1, 2})
	for i := 0; i < n; i++ {
		a.Add(Tuple{Value(i), Value(i % dup)})
		b.Add(Tuple{Value(i % dup), Value(i)})
	}
	return a, b
}

// settleGoroutines waits for the goroutine count to drop back to at most
// base, and returns the final count.
func settleGoroutines(base int) int {
	var n int
	for i := 0; i < 200; i++ {
		n = runtime.NumGoroutine()
		if n <= base {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
	return n
}

// TestJoinCancellationHygiene cancels a context mid-join and checks that
// the join fails with ErrCanceled, retains no partial output, and starts
// no goroutine that outlives it.
func TestJoinCancellationHygiene(t *testing.T) {
	a, b := bigJoinInputs(5000, 25) // ~1M output rows
	base := runtime.NumGoroutine()

	canceled := false
	for attempt := 0; attempt < 5 && !canceled; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		delay := time.Duration(attempt+1) * 500 * time.Microsecond
		timer := time.AfterFunc(delay, cancel)
		out, err := JoinLimited(a, b, &Limit{Ctx: ctx})
		timer.Stop()
		cancel()
		if err == nil {
			continue // join finished before the cancel landed; try sooner
		}
		canceled = true
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want errors.Is(err, context.Canceled)", err)
		}
		if out != nil {
			t.Fatalf("canceled join returned partial output of %d rows", out.Len())
		}
	}
	if !canceled {
		t.Fatal("could not cancel the join mid-flight in 5 attempts")
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("goroutines leaked: %d before, %d after settle", base, n)
	}
}

// TestMemBudgetFiresBeforeRowCap gives a join a byte budget far tighter
// than its row cap and checks the memory error wins.
func TestMemBudgetFiresBeforeRowCap(t *testing.T) {
	a, b := bigJoinInputs(3000, 30) // ~300k output rows
	var bytes atomic.Int64
	lim := &Limit{MaxRows: 100_000_000, MaxBytes: 64 << 10, Bytes: &bytes}
	if _, err := JoinLimited(a, b, lim); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("err = %v, want ErrMemBudget", err)
	}

	// The shared counter makes the budget cumulative across operators:
	// a join that fits alone fails when the counter is pre-charged.
	small := New([]Attr{0, 1})
	small2 := New([]Attr{1, 2})
	for i := 0; i < 100; i++ {
		small.Add(Tuple{Value(i), Value(i % 5)})
		small2.Add(Tuple{Value(i % 5), Value(i)})
	}
	bytes.Store(0)
	lim = &Limit{MaxBytes: 1 << 20, Bytes: &bytes}
	if _, err := JoinLimited(small, small2, lim); err != nil {
		t.Fatalf("small join under roomy budget: %v", err)
	}
	bytes.Store(1 << 20)
	if _, err := JoinLimited(small, small2, lim); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("pre-charged budget: err = %v, want ErrMemBudget", err)
	}
}

// TestProjectMemBudget checks the projection kernel honors the byte
// budget too.
func TestProjectMemBudget(t *testing.T) {
	r := New([]Attr{0, 1})
	for i := 0; i < 100_000; i++ {
		r.Add(Tuple{Value(i), Value(i)})
	}
	if _, err := ProjectLimited(r, []Attr{0}, &Limit{MaxBytes: 16 << 10}); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("err = %v, want ErrMemBudget", err)
	}
}

// TestJoinPanicBecomesPanicError injects a panic at the join kernel's
// entry and checks that a caller's RecoverPanic boundary turns it into a
// typed PanicError with the stack, and that the same join succeeds once
// injection is off.
func TestJoinPanicBecomesPanicError(t *testing.T) {
	defer faultinject.Disable()
	if err := faultinject.Enable("join.panic=1", 7); err != nil {
		t.Fatal(err)
	}
	a, b := bigJoinInputs(400, 40)
	guarded := func() (err error) {
		defer RecoverPanic(&err)
		_, err = JoinLimited(a, b, nil)
		return err
	}
	var pe *PanicError
	if err := guarded(); !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError carries no stack")
	}
	if faultinject.Calls(faultinject.PanicJoin) != 1 {
		t.Fatalf("join.panic drawn %d times, want 1", faultinject.Calls(faultinject.PanicJoin))
	}

	faultinject.Disable()
	if err := guarded(); err != nil {
		t.Fatalf("join after Disable: %v", err)
	}
}

// TestCancelBeforeStart checks the entry-point interruption path of every
// limited kernel.
func TestCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	lim := &Limit{Ctx: ctx}
	a, b := bigJoinInputs(100, 5)
	if _, err := JoinLimited(a, b, lim); !errors.Is(err, ErrCanceled) {
		t.Fatalf("JoinLimited: err = %v, want ErrCanceled", err)
	}
	if _, err := ProjectLimited(a, []Attr{0}, lim); !errors.Is(err, ErrCanceled) {
		t.Fatalf("ProjectLimited: err = %v, want ErrCanceled", err)
	}
}
