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

// TestJoinProjectLimitParity holds the fused join-project kernel to
// JoinLimited's limits on both key paths (private relations build a
// table, views read a sorted index): the row cap fires at the same
// MaxRows, a cancel that lands after entry stops both after the same work,
// within CheckInterval tuples of the table's build, with no output, and
// join.alloc and join.panic fire at its entry.
func TestJoinProjectLimitParity(t *testing.T) {
	a, b := bigJoinInputs(1000, 20) // 50 000 join rows over 20 keys
	keep := []Attr{0, 2}
	for _, arm := range []struct {
		name  string
		r, o  *Relation
		built int64
	}{{"table", a, b, int64(a.Len())}, {"sorted index", Rename(a, nil), Rename(b, nil), 0}} {
		joined, err := JoinLimited(arm.r, arm.o, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, rows := range []int{joined.Len() - 1, joined.Len()} {
			_, errJoin := JoinLimited(arm.r, arm.o, &Limit{MaxRows: rows})
			out, n, err := JoinProjectLimited(arm.r, arm.o, keep, &Limit{MaxRows: rows})
			if !errors.Is(err, errJoin) || (err == nil) != (rows == joined.Len()) || err == nil && n != rows || err != nil && out != nil {
				t.Fatalf("%s, MaxRows %d of %d: fused err %v after %d rows, JoinLimited's %v", arm.name, rows, joined.Len(), err, n, errJoin)
			}
		}
		var work, joinWork int64
		_, errJoin := JoinLimited(arm.r, arm.o, &Limit{Ctx: &cancelAfterEntry{Context: context.Background()}, Work: &joinWork})
		out, _, err := JoinProjectLimited(arm.r, arm.o, keep, &Limit{Ctx: &cancelAfterEntry{Context: context.Background()}, Work: &work})
		if !errors.Is(err, ErrCanceled) || !errors.Is(errJoin, ErrCanceled) || out != nil || work != joinWork || work > arm.built+CheckInterval+1 {
			t.Fatalf("%s, canceled: err %v after %d tuples, JoinLimited's %v after %d: want ErrCanceled within %d",
				arm.name, err, work, errJoin, joinWork, arm.built+CheckInterval+1)
		}
	}

	defer faultinject.Disable()
	if err := faultinject.Enable("join.alloc=1", 7); err != nil {
		t.Fatal(err)
	}
	if _, _, err := JoinProjectLimited(a, b, keep, nil); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("join.alloc armed: err %v, want ErrMemBudget", err)
	}
	if err := faultinject.Enable("join.panic=1", 7); err != nil {
		t.Fatal(err)
	}
	guarded := func() (err error) {
		defer RecoverPanic(&err)
		_, _, err = JoinProjectLimited(a, b, keep, nil)
		return err
	}
	var pe *PanicError
	if err := guarded(); !errors.As(err, &pe) || faultinject.Calls(faultinject.PanicJoin) != 1 {
		t.Fatalf("join.panic armed: err %v after %d draws, want a *PanicError after 1", err, faultinject.Calls(faultinject.PanicJoin))
	}
}

// TestJoinProjectCollapsingWithinBudget is the case the output's sizing
// is capped for: over a sorted index, a projection onto two columns whose
// ranges are a million wide collapses 1 000 join rows onto four, so an
// output sized for the join's rows (a row and a dedup slot apiece, at
// least) would outweigh the join and the projection together. Started
// within the join's arena bytes instead, it stays at or below the two
// kernels' bytes and charges (checkJoinProject), and so never fails under
// a budget of exactly theirs.
func TestJoinProjectCollapsingWithinBudget(t *testing.T) {
	r, o := New([]Attr{0, 1}), New([]Attr{1, 2})
	for y := Value(0); y < 250; y++ {
		for _, v := range []Value{0, 999_999} {
			r.Add(Tuple{v, y})
			o.Add(Tuple{y, v})
		}
	}
	joined := Join(Rename(r, nil), Rename(o, nil))
	projected := Project(joined, []Attr{0, 2})
	if two, sized := joined.Bytes()+projected.Bytes(), int64(joined.Len())*(2*4+12); joined.Len() != 1000 || projected.Len() != 4 || sized <= two {
		t.Fatalf("%d join rows onto %d: an output sized for the join's rows takes %d bytes, the two kernels %d", joined.Len(), projected.Len(), sized, two)
	}
	checkJoinProject(t, r, o)
}

// TestJoinProjectSizedOnce: over a sorted index, an output whose rows and
// table for min(J, R) fit in the join's arena is allocated once at exactly
// that size, with a row more to stage a candidate into, and charged
// exactly that, never grown or rebuilt: R is nine on two columns of three
// values, and 80 on three columns one of which is negative, so its keys
// hash from the first row on.
func TestJoinProjectSizedOnce(t *testing.T) {
	pair := func(xs, ys, zs []Value, wide bool) (*Relation, *Relation) {
		r, o := New([]Attr{0, 1}), New([]Attr{1, 2, 3})
		for _, y := range ys {
			for _, x := range xs {
				r.Add(Tuple{x, y})
			}
			for _, z := range zs {
				o.Add(Tuple{y, z, z % 2})
				if wide {
					o.Add(Tuple{y, z, 1 - z%2})
				}
			}
		}
		return Rename(r, nil), Rename(o, nil)
	}
	span := func(lo, hi Value) (vs []Value) {
		for v := lo; v < hi; v++ {
			vs = append(vs, v)
		}
		return vs
	}
	for _, c := range []struct {
		r, o       *Relation
		keep       []Attr
		rows, cols int
	}{
		{nil, nil, []Attr{0, 2}, 9, 2},
		{nil, nil, []Attr{0, 2, 3}, 80, 3},
	} {
		if c.cols == 2 {
			c.r, c.o = pair(span(0, 3), span(0, 100), span(0, 3), false)
		} else {
			c.r, c.o = pair(span(-20, 0), span(0, 50), span(0, 2), true)
		}
		var charged atomic.Int64
		got, _, err := JoinProjectLimited(c.r, c.o, c.keep, &Limit{MaxBytes: 1 << 40, Bytes: &charged})
		sized := int64(4*c.cols*(c.rows+1)) + 12*int64(max(16, nextPow2(c.rows*4/3+1))) // a row more to stage into
		if err != nil || got.Len() != c.rows || got.Bytes() != sized || charged.Load() != sized {
			t.Errorf("onto %v: %d rows in %d bytes, %d charged (err %v): want %d rows in %d bytes, charged once", c.keep, got.Len(), got.Bytes(), charged.Load(), err, c.rows, sized)
		}
	}
}
