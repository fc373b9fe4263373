package relation

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// checkResidentJoin joins r and o in every arm where a side is a view of
// its stored arena, and checks each answer, as a set, against the nested
// loops and the join of private copies. On an arm that reads a sorted
// index (a one-column key whose build side's range is no wider than its
// rows) it also checks the limits the run path settles before writing: the
// work charged is the probe rows plus the matches, the output arena is
// exactly 4·arity·rows bytes, a row cap one under the output (MaxRows 0
// caps nothing) fails with ErrRowLimit before a byte is charged, and a byte budget one under the
// arena fails with ErrMemBudget. It reports how many arms read a sorted
// index and how many probed a column index.
func checkResidentJoin(t *testing.T, r, o *Relation) (sorted, table int) {
	t.Helper()
	want := nestedLoopJoin(r, o)
	private, err := JoinLimited(r.Clone(), o.Clone(), nil)
	if err != nil || !private.Equal(want) {
		t.Fatalf("the join of private copies: %v (err %v), nested loops %v (r=%v o=%v)", private, err, want, r, o)
	}
	for _, arm := range kernelArms(r, o)[:3] {
		spec := makeJoinSpec(arm.r, arm.o, nil)
		var work int64
		got, err := JoinLimited(arm.r, arm.o, &Limit{Work: &work})
		if err != nil {
			t.Fatal(err)
		}
		bytes := got.Bytes() // before Equal builds its dedup table
		if !got.Equal(want) || !got.Equal(private) {
			t.Fatalf("JoinLimited, %s: %v (err %v), nested loops %v (r=%v o=%v)", arm.name, got, err, want, r, o)
		}
		if !spec.runs {
			table++
			continue
		}
		if sorted++; want.Len() == 0 {
			continue
		}
		arena := int64(len(want.data)) * 4
		if work != int64(spec.probe.Len()+want.Len()) || bytes != arena {
			t.Fatalf("JoinLimited, %s: work %d and %d bytes, want %d probe rows + %d matches and an arena of %d (r=%v o=%v)",
				arm.name, work, bytes, spec.probe.Len(), want.Len(), arena, r, o)
		}
		var charged atomic.Int64
		capped := &Limit{MaxRows: want.Len() - 1, MaxBytes: 1 << 40, Bytes: &charged}
		if _, err := JoinLimited(arm.r, arm.o, capped); want.Len() > 1 && (!errors.Is(err, ErrRowLimit) || charged.Load() != 0) {
			t.Fatalf("JoinLimited, %s, capped one row under its %d: err %v after %d bytes charged, want ErrRowLimit before any", arm.name, want.Len(), err, charged.Load())
		}
		if _, err := JoinLimited(arm.r, arm.o, &Limit{MaxBytes: arena - 1}); !errors.Is(err, ErrMemBudget) {
			t.Fatalf("JoinLimited, %s, budgeted one byte under its %d-byte arena: err %v, want ErrMemBudget", arm.name, arena, err)
		}
		if _, err := JoinLimited(arm.r, arm.o, &Limit{MaxRows: want.Len(), MaxBytes: arena}); err != nil {
			t.Fatalf("JoinLimited, %s, with exactly its %d rows and %d bytes: %v", arm.name, want.Len(), arena, err)
		}
	}
	return sorted, table
}

// keyedRelation builds a relation of n rows over attrs whose first
// attribute, the join key, takes its values from key(i) and the others
// values in [-3, 40).
func keyedRelation(rng *rand.Rand, attrs []Attr, n int, key func(i int) Value) *Relation {
	r := New(attrs)
	row := make(Tuple, len(attrs))
	for i := 0; i < n; i++ {
		row[0] = key(i)
		for j := 1; j < len(row); j++ {
			row[j] = Value(rng.Intn(43) - 3)
		}
		r.Add(row)
	}
	return r
}

// TestJoinResidentMatchesOracle drives the join over a stored view at
// arities 1–3 on each side through key columns that are dense (the sorted
// index keeps start offsets and is read), sparse (the column index is
// probed instead), negative, single-valued and empty, with the key
// anywhere in either schema, and checks that each reached its path.
func TestJoinResidentMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	leads := []struct {
		name string
		key  func(i int) Value
		runs bool // reaches the sorted index; else the column index
	}{
		{"dense", func(int) Value { return Value(rng.Intn(20)) }, true},
		{"sparse", func(int) Value { return Value(rng.Intn(20)) * 100_003 }, false},
		{"negative", func(int) Value { return Value(-rng.Intn(20) - 1_000_000) }, true},
		{"single-valued", func(int) Value { return -7 }, true},
	}
	for _, lead := range leads {
		reached := [2]int{}
		for trial := 0; trial < 40; trial++ {
			ra, oa := 1+trial%3, 1+trial/3%3
			rAttrs, oAttrs := []Attr{0}, []Attr{0}
			for j := 1; j < ra; j++ {
				rAttrs = append(rAttrs, Attr(j))
			}
			for j := 1; j < oa; j++ {
				oAttrs = append(oAttrs, Attr(10+j))
			}
			rn, on := 30+rng.Intn(40), rng.Intn(40)
			if trial%10 == 9 {
				rn = 0 // an empty side
			}
			r := keyedRelation(rng, rAttrs, rn, lead.key)
			o := keyedRelation(rng, oAttrs, on, lead.key)
			// Move the key to a random column of each schema.
			r = Project(r, rotate(r.Attrs(), rng.Intn(ra)))
			o = Project(o, rotate(o.Attrs(), rng.Intn(oa)))
			for _, pair := range [][2]*Relation{{r, o}, {o, r}} {
				sorted, table := checkResidentJoin(t, pair[0], pair[1])
				reached[0], reached[1] = reached[0]+sorted, reached[1]+table
			}
		}
		if lead.runs && reached[0] == 0 || !lead.runs && reached[1] == 0 {
			t.Errorf("%s keys: %d arms read a sorted index and %d a column index", lead.name, reached[0], reached[1])
		}
	}
}

// rotate returns attrs rotated left by k.
func rotate(attrs []Attr, k int) []Attr {
	return append(append([]Attr(nil), attrs[k:]...), attrs[:k]...)
}

// cancelAfterEntry is a context that reads canceled from its second Err
// call on: a join polls it on entry, so the cancel lands once the join
// has started.
type cancelAfterEntry struct {
	context.Context
	calls atomic.Int32
}

func (c *cancelAfterEntry) Err() error {
	if c.calls.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}

// TestJoinResidentCancelInsideARun: one probe row matches a run of
// 100 000 rows of a stored view's sorted index, and a cancel that lands
// after the join starts is seen within deadlineCheckInterval tuples
// touched, inside that run, with no partial output.
func TestJoinResidentCancelInsideARun(t *testing.T) {
	big := New([]Attr{0, 1})
	for i := 0; i < 100_000; i++ {
		big.Add(Tuple{5, Value(i)})
	}
	probe := New([]Attr{0})
	probe.Add(Tuple{5})
	view := Rename(big, nil)
	if spec := makeJoinSpec(probe, view, nil); !spec.runs {
		t.Fatal("a single-valued key column did not take the sorted index")
	}
	var work int64
	ctx := &cancelAfterEntry{Context: context.Background()}
	out, err := JoinLimited(probe, view, &Limit{Ctx: ctx, Work: &work})
	if !errors.Is(err, ErrCanceled) || out != nil {
		t.Fatalf("err %v, output %v: want ErrCanceled and no output", err, out)
	}
	if work > deadlineCheckInterval+1 {
		t.Fatalf("the cancel was seen after %d tuples, want at most %d", work, deadlineCheckInterval+1)
	}
}

// TestJoinResidentOneIndexPerOrder: concurrent joins keyed on either
// column of one stored relation, each over fresh views, settle on one
// sorted index per column order, and the arena's resident bytes are those
// two indexes'.
func TestJoinResidentOneIndexPerOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	stored := New([]Attr{0, 1})
	for stored.Len() < 2000 {
		stored.Add(Tuple{Value(rng.Intn(100)), Value(rng.Intn(100))})
	}
	keys := [2]*Relation{New([]Attr{0}), New([]Attr{1})}
	for v := Value(0); v < 100; v += 3 {
		keys[0].Add(Tuple{v})
		keys[1].Add(Tuple{v})
	}
	want := [2]*Relation{nestedLoopJoin(keys[0], stored), nestedLoopJoin(keys[1], stored)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := JoinLimited(keys[g%2], Rename(stored, nil), nil)
			if err != nil || !out.Equal(want[g%2]) {
				t.Errorf("join %d on column %d: %v (err %v)", g, g%2, out, err)
			}
		}()
	}
	wg.Wait()
	a, errA := stored.SortedIndex([]Attr{0, 1})
	b, errB := stored.SortedIndex([]Attr{1, 0})
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if got := stored.ResidentIndexBytes(); got != a.Bytes()+b.Bytes() || a.starts == nil || b.starts == nil {
		t.Fatalf("resident bytes %d, want the two orders' indexes, %d + %d, each with start offsets", got, a.Bytes(), b.Bytes())
	}
}

// fuzzRelation reads a relation from arbitrary bytes: an arity byte
// (1–3), a key-position byte and little-endian int16 values, the key
// column's (attribute 0) scaled by a shift byte so that its range is dense
// or sparse. Its other attributes are first+1, first+2.
func fuzzRelation(data []byte, first Attr) *Relation {
	if len(data) < 3 {
		return New([]Attr{0})
	}
	arity, keyAt, shift := 1+int(data[0])%3, int(data[1])%3, uint(data[2])%24
	attrs := []Attr{0}
	for j := 1; j < arity; j++ {
		attrs = append(attrs, first+Attr(j))
	}
	r := New(rotate(attrs, keyAt%arity))
	row := make(Tuple, arity)
	for data = data[3:]; len(data) >= 2*arity && r.Len() < 300; data = data[2*arity:] {
		for j := range row {
			row[j] = Value(int16(binary.LittleEndian.Uint16(data[2*j:])))
		}
		row[r.Pos(0)] <<= shift
		r.Add(row)
	}
	return r
}

// FuzzJoinResident reads two relations with fuzzRelation and checks every
// view arm of their join with checkResidentJoin.
func FuzzJoinResident(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 0, 1, 0, 2, 0, 0, 0, 0, 0}, []byte{1, 0, 0, 1, 0, 2, 0})
	f.Add([]byte{3, 1, 20, 1, 0, 1, 0, 1, 0, 9, 0, 1, 0, 2, 0}, []byte{2, 1, 20, 1, 0, 1, 0, 9, 0, 3, 0})
	f.Add([]byte{1, 0, 0, 0xff, 0xff, 0xfe, 0xff}, []byte{2, 1, 0, 7, 0, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, rb, ob []byte) {
		r, o := fuzzRelation(rb, 0), fuzzRelation(ob, 10)
		checkResidentJoin(t, r, o)
		checkResidentJoin(t, o, r)
	})
}
