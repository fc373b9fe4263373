package relation

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// nestedLoopSemijoin is the trivially-correct oracle: keep each r-tuple
// that agrees with some o-tuple on every shared attribute.
func nestedLoopSemijoin(r, o *Relation) *Relation {
	shared := SharedAttrs(r, o)
	out := New(r.Attrs())
	r.Each(func(rt Tuple) bool {
		match := false
		o.Each(func(ot Tuple) bool {
			for _, a := range shared {
				if rt[r.Pos(a)] != ot[o.Pos(a)] {
					return true
				}
			}
			match = true
			return false
		})
		if match {
			out.Add(rt)
		}
		return true
	})
	return out
}

// keySetKind names the structure a key set chose: "bitmap", "table"
// (packed keys) or "hashed" (FNV keys, verified).
func keySetKind(s *keySet) string {
	switch {
	case s.bitmap:
		return "bitmap"
	case s.exact:
		return "table"
	}
	return "hashed"
}

// checkSemijoinKernels runs r ⋉ o through SemijoinFilter in four arms —
// the target a view, the source a view, both, and neither (the key set's
// scan) — and through a StreamFilter, and r ⋈ o through JoinLimited,
// against the nested loop oracles. Every arm must keep exactly the
// oracle's rows, row for row in r's arena order, so the index arms and the
// scan agree on every later join, count and byte. It checks that the key
// set's charge is at most the join table's over the same rows and returns
// the structure it chose.
func checkSemijoinKernels(t *testing.T, r, o *Relation) string {
	t.Helper()
	want := nestedLoopSemijoin(r, o)
	var inOrder []Value
	r.Each(func(rt Tuple) bool {
		if want.Contains(rt) {
			inOrder = append(inOrder, rt...)
		}
		return true
	})
	for _, arm := range kernelArms(r, o) {
		// SemijoinFilter consumes its receiver: each arm gets its own.
		got, removed, err := SemijoinFilter(arm.r, arm.o, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Arena(), inOrder) || removed != r.Len()-want.Len() {
			t.Fatalf("SemijoinFilter, %s: %v (removed %d), want %v in r's order (r=%v o=%v)",
				arm.name, got.Arena(), removed, inOrder, r, o)
		}
	}
	checkJoinOutput(t, r, o)
	shared := SharedAttrs(r, o)
	if len(shared) == 0 {
		return "disjoint"
	}
	f, err := NewStreamFilter(o, shared, nil)
	if err != nil {
		t.Fatal(err)
	}
	rPos := r.colsOf(shared)
	r.Each(func(rt Tuple) bool {
		if f.Match(rt, rPos) != want.Contains(rt) {
			t.Fatalf("StreamFilter.Match(%v) = %v, oracle %v (o=%v)", rt, !want.Contains(rt), want.Contains(rt), o)
		}
		return true
	})
	if f.Bytes() > joinTableBytes(o.Len()) {
		t.Fatalf("%s key set over %d rows charges %d bytes, the table %d (o=%v)",
			keySetKind(f.set), o.Len(), f.Bytes(), joinTableBytes(o.Len()), o)
	}
	return keySetKind(f.set)
}

// kernelArms returns fresh copies of r and o in the four arms every
// kernel check runs: r a view, o a view, both, and neither. A view is a
// zero-copy Rename, which reads its stored arena's column index; a Clone
// is private and makes the kernel build.
func kernelArms(r, o *Relation) []struct {
	name string
	r, o *Relation
} {
	view := func(x *Relation) *Relation { return Rename(x, nil) }
	return []struct {
		name string
		r, o *Relation
	}{
		{"target a view", view(r), o.Clone()},
		{"source a view", r.Clone(), view(o)},
		{"both views", view(r), view(o)},
		{"neither a view", r.Clone(), o.Clone()},
	}
}

// checkJoinOutput checks r ⋈ o against the nested-loop oracle in the four
// arms of kernelArms (on a one-column key a view's column index is the
// table; otherwise the smaller side is built), and that every output row
// lies inside the output's column ranges. The output, written without
// membership tests, takes 4·arity·rows bytes when a view's sorted index
// answered, and otherwise the arena bytes of the same rows added one by
// one; it has no dedup table until asked, and then answers in the regime
// its column ranges call for: Equal asks Contains of every oracle row, and
// Add must refuse a stored row and accept a new one.
func checkJoinOutput(t *testing.T, r, o *Relation) {
	t.Helper()
	want := nestedLoopJoin(r, o)
	for _, arm := range kernelArms(r, o) {
		bytes := int64(cap(want.data)) * 4
		if spec := makeJoinSpec(arm.r, arm.o, nil); spec.runs {
			bytes = int64(len(want.data)) * 4
		}
		joined, err := JoinLimited(arm.r, arm.o, nil)
		if err != nil {
			t.Fatal(err)
		}
		if joined.keys != nil || joined.Bytes() != bytes {
			t.Fatalf("join output, %s, takes %d bytes, want %d, and no dedup table before any membership query (r=%v o=%v)",
				arm.name, joined.Bytes(), bytes, r, o)
		}
		if !joined.Equal(want) {
			t.Fatalf("JoinLimited, %s: %v != oracle %v (r=%v o=%v)", arm.name, joined, want, r, o)
		}
		joined.Each(func(jt Tuple) bool {
			for j, v := range jt {
				if v < joined.colMin[j] || v > joined.colMax[j] {
					t.Fatalf("JoinLimited, %s: row %v outside column %d's range [%d,%d] (r=%v o=%v)",
						arm.name, jt, j, joined.colMin[j], joined.colMax[j], r, o)
				}
			}
			return true
		})
		fresh := make(Tuple, joined.Arity())
		if joined.Len() > 0 {
			if joined.Add(joined.row(0).Clone()) {
				t.Fatalf("join output, %s, re-admitted %v (r=%v o=%v)", arm.name, joined.row(0), r, o)
			}
			copy(fresh, joined.row(0))
		}
		for want.Contains(fresh) {
			fresh[0]++
		}
		if !joined.Add(fresh) || !joined.Contains(fresh) || joined.Len() != want.Len()+1 {
			t.Fatalf("join output, %s, refused or lost the new row %v (r=%v o=%v)", arm.name, fresh, r, o)
		}
	}
}

// poolRelation builds a relation over attrs with n tuples whose values are
// drawn from pool.
func poolRelation(rng *rand.Rand, attrs []Attr, n int, pool []Value) *Relation {
	r := New(attrs)
	t := make(Tuple, len(attrs))
	for i := 0; i < n; i++ {
		for j := range t {
			t[j] = pool[rng.Intn(len(pool))]
		}
		r.Add(t)
	}
	return r
}

// TestSemijoinKernelsMatchOracle drives every semijoin kernel and the join
// through each key regime — a dense bitmap, sparse keys the size rule sends
// to the table, two-column keys, three- and four-column keys that do not
// pack, negative values and the int32 extremes — plus empty sources and a
// disjoint schema, and checks that each regime reached its structure.
func TestSemijoinKernelsMatchOracle(t *testing.T) {
	const big = 1 << 21 // no value from here up packs in a 3-column key
	regimes := []struct {
		name   string
		shared int
		pool   []Value
		want   string
	}{
		{"disjoint", 0, []Value{0, 1, 2}, "disjoint"},
		{"dense", 1, denseValues(200), "bitmap"},
		{"sparse", 1, []Value{0, 100_003, 200_006, 300_009, 400_012, 500_015}, "table"},
		{"two-column", 2, []Value{0, 1, 2, 3}, "table"},
		{"three-column-packed", 3, []Value{0, 1, 2, big - 1}, "table"},
		{"three-column-wide", 3, []Value{0, 1, big, big + 7}, "hashed"},
		{"four-column-negative", 4, []Value{-3, 0, 1, 2}, "hashed"},
		{"extremes", 1, []Value{math.MinInt32, -1, 0, 1, math.MaxInt32}, "table"},
		{"two-column-extremes", 2, []Value{math.MinInt32, -1, 0, math.MaxInt32}, "table"},
	}
	rng := rand.New(rand.NewSource(7))
	for _, rg := range regimes {
		rAttrs, oAttrs := []Attr{0}, []Attr{9}
		for a := 1; a <= rg.shared; a++ {
			rAttrs = append(rAttrs, a)
			oAttrs = append(oAttrs, rg.shared+1-a) // o orders the shared columns the other way
		}
		reached := map[string]int{}
		for trial := 0; trial < 60; trial++ {
			on := rng.Intn(30)
			if trial%10 == 0 {
				on = 0 // an empty source
			}
			rn := rng.Intn(30)
			if trial%3 == 1 {
				rn = 64 + rng.Intn(150) // more than one word of survivor mask, where the pool allows
			}
			r := poolRelation(rng, rAttrs, rn, rg.pool)
			o := poolRelation(rng, oAttrs, on, rg.pool)
			kind := checkSemijoinKernels(t, r, o)
			if o.Len() > 1 { // an empty or one-row source is always a bitmap
				reached[kind]++
			}
			checkSemijoinKernels(t, o, r)
		}
		if reached[rg.want] == 0 {
			t.Errorf("%s: no key set reached the %s regime (reached %v)", rg.name, rg.want, reached)
		}
	}
}

// TestKeySetChargeNeverExceedsTable pins the size rule at its boundary:
// a bitmap exactly the join table's bytes is chosen, one word more is not,
// so the key set never charges more than the table it replaces.
func TestKeySetChargeNeverExceedsTable(t *testing.T) {
	for _, n := range []int{2, 7, 100, 1000} {
		table := joinTableBytes(n)
		for _, tc := range []struct {
			words int64
			want  string
		}{{table / 8, "bitmap"}, {table/8 + 1, "table"}} {
			o := New([]Attr{0})
			for v := 0; v < n-1; v++ {
				o.Add(Tuple{Value(v)})
			}
			o.Add(Tuple{Value((tc.words - 1) * 64)}) // the key span is tc.words words
			s := newKeySet(o, []int{0})
			if kind := keySetKind(s); kind != tc.want || s.bytes() > table {
				t.Errorf("n=%d, span of %d words: %s charging %d bytes, want %s within the table's %d",
					n, tc.words, kind, s.bytes(), tc.want, table)
			}
		}
	}
}

// denseValues returns 0..n-1.
func denseValues(n int) []Value {
	v := make([]Value, n)
	for i := range v {
		v[i] = Value(i)
	}
	return v
}

// FuzzSemijoinKeys feeds fuzzer-chosen int32 values to two relations that
// share 1–4 columns and checks SemijoinFilter's four arms, StreamFilter and
// JoinLimited against nested loops. The first byte picks the shared-column
// count; the rest is little-endian int32 values, rows alternating between
// the sides.
func FuzzSemijoinKeys(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0x20, 0, 1, 0, 0, 0,
		0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0x20, 0, 5, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := 1 + int(data[0])%4
		data = data[1:]
		rAttrs, oAttrs := []Attr{0}, []Attr{9}
		for a := 1; a <= k; a++ {
			rAttrs = append(rAttrs, a)
			oAttrs = append(oAttrs, k+1-a)
		}
		r, o := New(rAttrs), New(oAttrs)
		row := make(Tuple, k+1)
		for side := 0; len(data) >= 4*len(row) && r.Len()+o.Len() < 128; side++ {
			for j := range row {
				row[j] = Value(binary.LittleEndian.Uint32(data[4*j:]))
			}
			data = data[4*len(row):]
			[]*Relation{r, o}[side%2].Add(row)
		}
		checkSemijoinKernels(t, r, o)
		checkSemijoinKernels(t, o, r)
	})
}

func TestSemijoinFilterAllSurviveIsIdentity(t *testing.T) {
	r := edgeRelation(0, 1)
	o := edgeRelation(1, 2) // every value matches: nothing removed
	out, removed, err := SemijoinFilter(r, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Fatalf("removed = %d, want 0", removed)
	}
	if out != r {
		t.Fatal("all-survive filter must return the receiver without copying")
	}
}

func TestSemijoinFilterSharedStorageCopies(t *testing.T) {
	// Rename shares the arena; filtering one view must never disturb the
	// sibling (an in-place compaction would).
	base := edgeRelation(0, 1)
	view := Rename(base, map[Attr]Attr{0: 3, 1: 4})
	before := base.Clone()

	single := New([]Attr{3})
	single.Add(Tuple{2})
	out, removed, err := SemijoinFilter(view, single, nil)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("selective filter removed nothing; test is vacuous")
	}
	if out == view {
		t.Fatal("filter on shared storage must return a fresh relation")
	}
	if !base.Equal(before) {
		t.Fatalf("sibling view corrupted: %v, want %v", base, before)
	}
	if want := nestedLoopSemijoin(view, single); !out.Equal(want) {
		t.Fatalf("shared-path filter %v != oracle %v", out, want)
	}
}

func TestSemijoinFilterInPlaceRemainsUsable(t *testing.T) {
	// After an in-place compaction the dedup index is rebuilt lazily;
	// Contains, Add and a further filter must all behave.
	rng := rand.New(rand.NewSource(9))
	r := randomRelation(rng, []Attr{0, 1}, 40, 6)
	sel := New([]Attr{0})
	sel.Add(Tuple{1})
	sel.Add(Tuple{2})
	want := nestedLoopSemijoin(r, sel)

	out, _, err := SemijoinFilter(r, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(want) {
		t.Fatalf("in-place filter %v != oracle %v", out, want)
	}
	out.Each(func(tu Tuple) bool {
		if !out.Contains(tu) {
			t.Fatalf("surviving tuple %v not found by Contains", tu)
		}
		return true
	})
	n := out.Len()
	out.Add(Tuple{Value(99), Value(99)})
	if out.Len() != n+1 || !out.Contains(Tuple{99, 99}) {
		t.Fatal("Add after in-place filter failed")
	}
	if out.Add(Tuple{99, 99}) {
		t.Fatal("dedup lost after in-place filter: duplicate accepted")
	}
}

func TestSemijoinFilterEmptyCases(t *testing.T) {
	r := edgeRelation(0, 1)
	empty := New([]Attr{1})
	out, removed, err := SemijoinFilter(r.Clone(), empty, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 || removed != r.Len() {
		t.Fatalf("filter by empty: len=%d removed=%d, want 0 and %d", out.Len(), removed, r.Len())
	}

	er := New([]Attr{0, 1})
	out, removed, err = SemijoinFilter(er, edgeRelation(1, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 || removed != 0 {
		t.Fatal("empty receiver must stay empty with nothing removed")
	}

	// Disjoint schemas: a nonempty other keeps everything, an empty
	// other keeps nothing (Cartesian semantics).
	non := New([]Attr{7})
	non.Add(Tuple{0})
	out, removed, err = SemijoinFilter(r.Clone(), non, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != r.Len() || removed != 0 {
		t.Fatal("disjoint nonempty other must keep all tuples")
	}
	out, removed, err = SemijoinFilter(r.Clone(), New([]Attr{7}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 || removed != r.Len() {
		t.Fatal("disjoint empty other must drop all tuples")
	}
}

func TestSemijoinKernelsHonorCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := randomRelation(rng, []Attr{0, 1}, 20000, 50)
	o := randomRelation(rng, []Attr{1, 2}, 20000, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := SemijoinFilter(r.Clone(), o, &Limit{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SemijoinFilter under canceled ctx: err = %v", err)
	}
}

// TestSemijoinLimitedChargesBytes: SemijoinFilter under a byte budget
// charges what it allocates for the request — a key set over the source
// when no index serves the key, and a view's survivors, which it copies
// into a fresh arena.
func TestSemijoinLimitedChargesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	r := randomRelation(rng, []Attr{0, 1, 2}, 5000, 20)
	o := randomRelation(rng, []Attr{1, 2, 3}, 5000, 20)
	// No index serves a two-column key: the kernel builds a key set over o.
	if _, _, err := SemijoinFilter(r, o, &Limit{MaxBytes: 64}); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("key set under a tiny byte budget: err = %v, want ErrMemBudget", err)
	}
	sel := New([]Attr{1})
	sel.Add(Tuple{3})
	if _, _, err := SemijoinFilter(Rename(r, nil), sel, &Limit{MaxBytes: 64}); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("a view's survivors under a tiny byte budget: err = %v, want ErrMemBudget", err)
	}
}

// TestSemijoinMixedKeyWidths pins the mixed-regime case: one side's shared
// columns pack and the other's do not. The source's regime alone decides
// the key set's, and a probe row that does not pack against a packed set
// must miss rather than be looked up as a hash — while a packed probe
// against a hashed set must hash, not miss every match.
func TestSemijoinMixedKeyWidths(t *testing.T) {
	small := New([]Attr{0, 1, 2, 3})
	small.Add(Tuple{3, 7, 7, 7})
	small.Add(Tuple{200, 9, 9, 9})
	big := New([]Attr{1, 2, 3, 4})
	big.Add(Tuple{7, 7, 7, 1000})
	big.Add(Tuple{9, 9, 9, 77})
	big.Add(Tuple{1 << 22, 0, 0, 1000}) // over 21 bits: a 3-column key cannot pack it
	shared := SharedAttrs(small, big)
	if len(shared) != 3 || !small.packs(small.colsOf(shared)) || big.packs(big.colsOf(shared)) {
		t.Fatal("setup: want small's 3 shared columns packed and big's hashed")
	}
	if kind := keySetKind(newKeySet(big, big.colsOf(shared))); kind != "hashed" {
		t.Fatalf("key set over big is %s, want hashed", kind)
	}
	if want := nestedLoopSemijoin(small, big); want.Len() != 2 {
		t.Fatalf("oracle sanity: got %d rows, want 2", want.Len())
	}
	if want := nestedLoopSemijoin(big, small); want.Len() != 2 {
		t.Fatalf("oracle sanity: got %d rows, want 2", want.Len())
	}
	checkSemijoinKernels(t, small, big)
	checkSemijoinKernels(t, big, small)
}

// TestSemijoinWorkIsSourcePlusSurvivors is the column index's cost
// contract: a semijoin of a k-row source into a view of an n-row stored
// relation charges Limit.Work at most k + survivors, not n — the call that
// builds the index too — and a target probing a view source is charged its
// own rows, with nothing for a key set over the source.
func TestSemijoinWorkIsSourcePlusSurvivors(t *testing.T) {
	const n = 6000
	stored := New([]Attr{0, 1})
	for i := 0; i < n; i++ {
		stored.Add(Tuple{Value(i), Value(i % 3000)}) // two rows per value of column 1
	}
	src := New([]Attr{1})
	for v := 0; v < 9; v++ {
		src.Add(Tuple{Value(100 * v)})
	}
	src.Add(Tuple{5000}) // matches nothing
	want := nestedLoopSemijoin(stored, src)
	for call := 0; call < 2; call++ {
		var work int64
		out, _, err := SemijoinFilter(Rename(stored, nil), src, &Limit{Work: &work})
		if err != nil || !out.Equal(want) {
			t.Fatalf("call %d: %v (err %v), want %v", call, out, err, want)
		}
		if limit := int64(src.Len() + out.Len()); work > limit {
			t.Errorf("call %d: a %d-row source into a view of %d rows charged Work %d, want at most %d (source + survivors)",
				call, src.Len(), n, work, limit)
		}
	}
	var work int64
	out, _, err := SemijoinFilter(src.Clone(), Rename(stored, nil), &Limit{Work: &work})
	if err != nil || !out.Equal(nestedLoopSemijoin(src, stored)) {
		t.Fatalf("probing a view source: %v (err %v)", out, err)
	}
	if work != int64(src.Len()) {
		t.Errorf("a %d-row target probing a view source charged Work %d, want %d (its own rows)", src.Len(), work, src.Len())
	}
}
