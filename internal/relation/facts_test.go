package relation

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDenseRange checks the density of columns against a direct count of
// their distinct values: dense columns, a column with a gap, a range wider
// than the row count (refused without a pass), negative values, and the
// empty relation.
func TestDenseRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		r := New([]Attr{0, 1, 2})
		lo, width := Value(rng.Intn(9)-4), 1+rng.Intn(6)
		for i := rng.Intn(4 * width); i > 0; i-- {
			r.Add(Tuple{lo + Value(rng.Intn(width)), Value(rng.Intn(3)) * Value(width), Value(rng.Intn(1000))})
		}
		for j := 0; j < r.Arity(); j++ {
			distinct := map[Value]bool{}
			r.Each(func(t Tuple) bool {
				distinct[t[j]] = true
				return true
			})
			min, max, dense := r.DenseRange(j)
			if r.Empty() {
				if dense {
					t.Fatalf("trial %d: column %d of an empty relation is dense", trial, j)
				}
				continue
			}
			want := int64(len(distinct)) == int64(max)-int64(min)+1
			if dense != want || !distinct[min] || !distinct[max] {
				t.Fatalf("trial %d column %d: DenseRange = [%d,%d] dense=%v over %d distinct values", trial, j, min, max, dense, len(distinct))
			}
		}
	}
}

// TestDenseRangeSharedAndInvalidated: views of one stored relation share
// one computation of its densities, from any number of goroutines, and an
// insert gives the relation it lands in a fresh answer while its siblings
// keep theirs.
func TestDenseRangeSharedAndInvalidated(t *testing.T) {
	base := New([]Attr{0, 1})
	for v := Value(0); v < 50; v++ {
		base.Add(Tuple{v, 2 * v}) // column 0 dense over [0,49], column 1 every other value
	}
	var wg sync.WaitGroup
	views := make([]*Relation, 8)
	for g := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine binds its own view, as concurrent requests
			// scanning one stored relation do, and asks through it.
			views[g] = Rename(base, map[Attr]Attr{0: 10 + g, 1: 100 + g})
			for j, want := range []bool{true, false} {
				if _, _, dense := views[g].DenseRange(j); dense != want {
					t.Errorf("view %d column %d: dense = %v, want %v", g, j, dense, want)
				}
			}
		}()
	}
	wg.Wait()
	for g, v := range views {
		if v.facts.Load() != base.facts.Load() {
			t.Errorf("view %d does not share the base relation's densities", g)
		}
	}

	// A duplicate changes nothing; a new row does, for the view it lands in.
	shared := base.facts.Load()
	views[0].Add(Tuple{0, 0})
	if views[0].facts.Load() != shared {
		t.Error("a duplicate insert dropped the densities")
	}
	views[0].Add(Tuple{60, 1})
	if _, max, dense := views[0].DenseRange(0); dense || max != 60 {
		t.Errorf("after inserting 60: column 0 = [..,%d] dense=%v, want a gap below 60", max, dense)
	}
	if _, max, dense := base.DenseRange(0); !dense || max != 49 || views[1].facts.Load() != shared {
		t.Errorf("the insert into a view reached its siblings: base column 0 = [..,%d] dense=%v", max, dense)
	}
	for v := Value(50); v < 60; v++ {
		views[0].Add(Tuple{v, 1})
	}
	if _, _, dense := views[0].DenseRange(0); !dense {
		t.Error("column 0 is dense again once the gap is filled")
	}

	// An in-place compaction drops them as well.
	private := New([]Attr{0, 1})
	keep := New([]Attr{0})
	for v := Value(0); v < 10; v++ {
		private.Add(Tuple{v, v})
		if v != 5 {
			keep.Add(Tuple{v})
		}
	}
	if _, _, dense := private.DenseRange(0); !dense {
		t.Fatal("column 0 should be dense before the filter")
	}
	out, removed, err := SemijoinFilter(private, keep, nil)
	if err != nil || removed != 1 || out != private {
		t.Fatalf("SemijoinFilter = %p (input %p), removed %d, err %v: want one row compacted away in place", out, private, removed, err)
	}
	if _, _, dense := out.DenseRange(0); dense {
		t.Error("column 0 lost the value 5 and still reads dense")
	}
}

// TestColumnIndexSharedAndInvalidated: concurrent semijoins into views of
// one stored relation build its column index once and all answer like the
// oracle, and an insert into the base after the build gives the base a
// fresh holder while the views it leaves behind keep answering right.
func TestColumnIndexSharedAndInvalidated(t *testing.T) {
	base := New([]Attr{0, 1})
	for v := Value(0); v < 500; v++ {
		base.Add(Tuple{v, v % 50})
	}
	var wg sync.WaitGroup
	views := make([]*Relation, 8)
	builds := make([]*int32, len(views))
	for g := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			views[g] = Rename(base, map[Attr]Attr{0: 10 + g})
			src := New([]Attr{1})
			src.Add(Tuple{Value(g)})
			src.Add(Tuple{Value(g + 20)})
			want := nestedLoopSemijoin(views[g], src)
			out, _, err := SemijoinFilter(Rename(views[g], nil), src, nil)
			if err != nil || !out.Equal(want) {
				t.Errorf("view %d: %v (err %v), want %v", g, out, err, want)
			}
			// The index's slot array names the build that made it.
			builds[g] = &views[g].columnIndex(1).slotHead[0]
		}()
	}
	wg.Wait()
	for g := range views {
		if builds[g] != builds[0] {
			t.Fatalf("view %d reads a different build of column 1's index than view 0", g)
		}
	}
	if ix := &base.facts.Load().index[0]; ix.table.slotHead != nil {
		t.Error("column 0's index was built, though no semijoin keyed on it")
	}

	// An insert gives the base a fresh holder, so a view bound after it
	// sees the new row; the views bound before keep their own arena.
	held := base.facts.Load()
	base.Add(Tuple{999, 77})
	if base.facts.Load() == held {
		t.Fatal("an insert left the base holding the index built before it")
	}
	src := New([]Attr{1})
	src.Add(Tuple{77})
	src.Add(Tuple{3})
	after := Rename(base, nil)
	for _, tc := range []struct {
		name string
		r    *Relation
	}{{"a view bound after the insert", after}, {"a view bound before it", views[5]}} {
		want := nestedLoopSemijoin(tc.r, src)
		if out, _, err := SemijoinFilter(Rename(tc.r, nil), src, nil); err != nil || !out.Equal(want) {
			t.Errorf("%s, as the target: %v (err %v), want %v", tc.name, out, err, want)
		}
		back := nestedLoopSemijoin(src, tc.r)
		if out, _, err := SemijoinFilter(src.Clone(), Rename(tc.r, nil), nil); err != nil || !out.Equal(back) {
			t.Errorf("%s, as the source: %v (err %v), want %v", tc.name, out, err, back)
		}
	}
}

// TestJoinOfStoredViewsProbesResidentIndex: a join of two stored views on
// one column builds no table. It reads the larger arena's sorted index on
// the key column (its 100 values over 3 000 rows keep start offsets),
// built once and charged to no request, so it fits a budget just above
// its output arena, where the same join over private copies must also pay
// for a table and fails. Later joins over fresh views of the arena, from
// any number of goroutines, add nothing to its resident bytes.
func TestJoinOfStoredViewsProbesResidentIndex(t *testing.T) {
	stored := func() (*Relation, *Relation) {
		big, small := New([]Attr{0, 1}), New([]Attr{1, 2})
		for v := Value(0); v < 3000; v++ {
			big.Add(Tuple{v, v % 100})
		}
		for v := Value(0); v < 200; v++ {
			small.Add(Tuple{v % 100, v})
		}
		return big, small
	}
	big, small := stored()
	want := nestedLoopJoin(big, small)
	budget := Join(big.Clone(), small.Clone()).Bytes() + 1000
	const index = 3000*2*4 + 100*4 // big's two columns and the key column's start offsets
	limit := func() *Limit { return &Limit{MaxBytes: budget, Bytes: new(atomic.Int64)} }

	for i := 1; i <= 2; i++ {
		out, err := JoinLimited(Rename(big, nil), Rename(small, nil), limit())
		if err != nil || !out.Equal(want) {
			t.Fatalf("join %d of two stored views under a budget of %d bytes: %v (err %v)", i, budget, out, err)
		}
		if got := big.ResidentIndexBytes(); got != index {
			t.Fatalf("after join %d the larger arena holds %d resident bytes, want one index of %d", i, got, index)
		}
		if got := small.ResidentIndexBytes(); got != 0 {
			t.Fatalf("after join %d the smaller arena holds %d resident bytes, want none", i, got)
		}
	}
	if _, err := JoinLimited(big.Clone(), small.Clone(), limit()); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("the join of two private copies under %d bytes: err %v, want ErrMemBudget for its table", budget, err)
	}

	big, small = stored()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := JoinLimited(Rename(small, map[Attr]Attr{2: 10 + g}), Rename(big, nil), limit())
			if err != nil || out.Len() != want.Len() {
				t.Errorf("concurrent join %d: %d rows (err %v), want %d", g, out.Len(), err, want.Len())
			}
		}()
	}
	wg.Wait()
	if got := big.ResidentIndexBytes(); got != index {
		t.Fatalf("concurrent joins left %d resident bytes, want one index of %d", got, index)
	}
}
