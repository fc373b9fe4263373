package relation

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// randomIndexed builds a random relation and a sorted index over a random
// permutation of its attributes. At arity ≥ 3, maxVal ≥ 2^(64/arity) puts
// the arena on FNV dedup keys; the index packs its sort keys either way
// (referenceOrder's test covers the ranges that do not fit).
func randomIndexed(t *testing.T, rng *rand.Rand, n, arity int, maxVal int32) (*Relation, *SortedIndex, []Attr) {
	t.Helper()
	attrs := make([]Attr, arity)
	for i := range attrs {
		attrs[i] = Attr(i)
	}
	r := New(attrs)
	buf := make(Tuple, arity)
	for i := 0; i < n; i++ {
		for j := range buf {
			buf[j] = Value(rng.Int31n(maxVal + 1))
		}
		r.Add(buf)
	}
	order := make([]Attr, arity)
	copy(order, attrs)
	rng.Shuffle(arity, func(i, j int) { order[i], order[j] = order[j], order[i] })
	ix, err := NewSortedIndex(r, order)
	if err != nil {
		t.Fatal(err)
	}
	return r, ix, order
}

// TestSortedIndexOrder checks the lexicographic order over small, byte
// and wide value ranges.
func TestSortedIndexOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, maxVal := range []int32{3, 255, 100_000} {
		_, ix, _ := randomIndexed(t, rng, 500, 3, maxVal)
		for i := 1; i < ix.Len(); i++ {
			for d := 0; d < ix.Depths(); d++ {
				a, b := ix.Value(i-1, d), ix.Value(i, d)
				if a < b {
					break
				}
				if a > b {
					t.Fatalf("maxVal=%d: rows %d,%d out of order at depth %d: %d > %d",
						maxVal, i-1, i, d, a, b)
				}
			}
		}
	}
}

// TestSortedIndexSeekProperty drives SeekGE and SeekGT against a linear
// scan over random brackets: for every bracket where the prefix depths
// are constant, the galloping seek must return exactly the first
// position the scan finds, on packed-key and FNV-key arenas alike.
func TestSortedIndexSeekProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct {
		n, arity int
		maxVal   int32
	}{
		{0, 2, 10},        // empty relation
		{1, 1, 5},         // single row
		{400, 2, 6},       // dense duplicates, packed keys
		{400, 3, 255},     // packed keys
		{400, 3, 1 << 22}, // FNV-key arena: a 3-column key packs values under 2^21
	} {
		r, ix, _ := randomIndexed(t, rng, tc.n, tc.arity, tc.maxVal)
		if hashed := tc.maxVal >= 1<<21; r.exact == hashed {
			t.Fatalf("n=%d maxVal=%d: dedup exact=%v, want %v", tc.n, tc.maxVal, r.exact, !hashed)
		}
		linear := func(d, lo, hi int, v Value, strict bool) int {
			for i := lo; i < hi; i++ {
				u := ix.Value(i, d)
				if (strict && u > v) || (!strict && u >= v) {
					return i
				}
			}
			return hi
		}
		// Depth-0 brackets are the whole index; deeper brackets are runs
		// of constant prefix, found by walking the sorted order.
		type bracket struct{ d, lo, hi int }
		brackets := []bracket{{0, 0, ix.Len()}}
		for d := 1; d < ix.Depths(); d++ {
			lo := 0
			for lo < ix.Len() {
				hi := lo + 1
				for hi < ix.Len() {
					same := true
					for pd := 0; pd < d; pd++ {
						if ix.Value(hi, pd) != ix.Value(lo, pd) {
							same = false
							break
						}
					}
					if !same {
						break
					}
					hi++
				}
				brackets = append(brackets, bracket{d, lo, hi})
				lo = hi
			}
		}
		for _, br := range brackets {
			probes := []Value{0, 1, Value(tc.maxVal), Value(tc.maxVal) + 1, 1<<31 - 1}
			for k := 0; k < 16; k++ {
				probes = append(probes, Value(rng.Int31n(tc.maxVal+1)))
			}
			if br.hi > br.lo {
				probes = append(probes, ix.Value(br.lo, br.d), ix.Value(br.hi-1, br.d))
			}
			for _, v := range probes {
				if got, want := ix.SeekGE(br.d, br.lo, br.hi, v), linear(br.d, br.lo, br.hi, v, false); got != want {
					t.Fatalf("n=%d maxVal=%d SeekGE(d=%d,[%d,%d),%d) = %d, linear scan %d",
						tc.n, tc.maxVal, br.d, br.lo, br.hi, v, got, want)
				}
				if got, want := ix.SeekGT(br.d, br.lo, br.hi, v), linear(br.d, br.lo, br.hi, v, true); got != want {
					t.Fatalf("n=%d maxVal=%d SeekGT(d=%d,[%d,%d),%d) = %d, linear scan %d",
						tc.n, tc.maxVal, br.d, br.lo, br.hi, v, got, want)
				}
			}
		}
	}
}

// TestSortedIndexSeekGTAtMaxValue pins the overflow case SeekGT exists
// for: finding the end of a run whose value is the maximum representable
// Value, where a SeekGE(v+1) formulation would wrap.
func TestSortedIndexSeekGTAtMaxValue(t *testing.T) {
	const top = Value(1<<31 - 1)
	r := New([]Attr{0})
	for _, v := range []Value{1, top, top, 5} {
		r.Add(Tuple{v})
	}
	ix, err := NewSortedIndex(r, []Attr{0})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.SeekGT(0, 0, ix.Len(), top); got != ix.Len() {
		t.Fatalf("SeekGT(max) = %d, want %d (end)", got, ix.Len())
	}
	if got := ix.SeekGE(0, 0, ix.Len(), top); got != 2 {
		t.Fatalf("SeekGE(max) = %d, want 2 (start of the max run)", got)
	}
}

// TestSortedIndexLimits checks the limit plumbing: a byte budget below
// the row-id array fails the build with ErrMemBudget, and work is
// charged per indexed row.
func TestSortedIndexLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r, _, order := randomIndexed(t, rng, 1000, 2, 50)
	var work int64
	lim := &Limit{Work: &work, MaxBytes: 16}
	if _, err := NewSortedIndexLimited(r, order, lim); err == nil {
		t.Fatal("16-byte budget admitted a 1000-row index")
	}
	work = 0
	if _, err := NewSortedIndexLimited(r, order, &Limit{Work: &work}); err != nil {
		t.Fatal(err)
	}
	if work < int64(r.Len()) {
		t.Fatalf("work charged = %d, want >= %d rows", work, r.Len())
	}
	if _, err := NewSortedIndex(r, []Attr{99}); err == nil {
		t.Fatal("indexing a missing attribute must fail")
	}
}

// referenceOrder is the index order as first written, kept as the tests'
// reference: row ids sorted through a comparator that walks the indexed
// columns and breaks ties by row id.
func referenceOrder(r *Relation, cols []int) []int32 {
	rows := make([]int32, r.n)
	for i := range rows {
		rows[i] = int32(i)
	}
	sort.Slice(rows, func(a, b int) bool {
		ta, tb := r.row(int(rows[a])), r.row(int(rows[b]))
		for _, c := range cols {
			if ta[c] != tb[c] {
				return ta[c] < tb[c]
			}
		}
		return rows[a] < rows[b]
	})
	return rows
}

// checkAgainstReference builds the index over attrs and compares its row
// order with the reference's, row id for row id.
func checkAgainstReference(t *testing.T, r *Relation, attrs []Attr) {
	t.Helper()
	ix, err := NewSortedIndex(r, attrs)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceOrder(r, ix.cols); !slices.Equal(ix.rows, want) {
		t.Fatalf("arity %d, %d rows indexed by %v (colMin %v colMax %v): order differs from the comparator's\n got  %v\n want %v",
			r.arity, r.n, attrs, r.colMin, r.colMax, ix.rows, want)
	}
}

// TestSortedIndexMatchesComparator is the packed build's property test:
// over arities 1–9, indexed on a random subset of the columns in random
// order (so rows tie on the indexed prefix and row id decides), with
// value ranges that are tiny, negative, the whole of int32, and mixed, the
// row order is exactly the reference comparator's — whether the keys fit
// 64 bits or the build falls back to comparing columns.
func TestSortedIndexMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(20040314))
	ranges := []struct {
		name   string
		lo, hi int64
	}{
		{"tiny", 0, 3},
		{"byte", 0, 255},
		{"negative", -70000, 500},
		{"wide", 0, 1 << 20},
		{"full", math.MinInt32, math.MaxInt32},
	}
	packed, fallback := 0, 0
	for arity := 1; arity <= 9; arity++ {
		for _, rg := range ranges {
			for trial := 0; trial < 4; trial++ {
				attrs := make([]Attr, arity)
				for i := range attrs {
					attrs[i] = Attr(10 + i)
				}
				r := New(attrs)
				buf := make(Tuple, arity)
				for i, n := 0, 1+rng.Intn(300); i < n; i++ {
					for j := range buf {
						// Column j alternates between the trial's range and
						// a tiny one, so wide and narrow columns mix.
						lo, hi := rg.lo, rg.hi
						if (j+trial)%3 == 2 {
							lo, hi = 0, 2
						}
						buf[j] = Value(lo + rng.Int63n(hi-lo+1))
					}
					if rg.name == "full" && i < 2 {
						buf[0] = Value([]int64{math.MinInt32, math.MaxInt32}[i])
					}
					r.Add(buf)
				}
				order := append([]Attr(nil), attrs...)
				rng.Shuffle(arity, func(i, j int) { order[i], order[j] = order[j], order[i] })
				order = order[:1+rng.Intn(arity)]

				width := bits.Len64(uint64(r.n - 1))
				for _, a := range order {
					c := r.Pos(a)
					width += bits.Len64(uint64(int64(r.colMax[c]) - int64(r.colMin[c])))
				}
				if width <= 64 {
					packed++
				} else {
					fallback++
				}
				checkAgainstReference(t, r, order)
				// A renamed view shares the arena and the order.
				checkAgainstReference(t, Rename(r, map[Attr]Attr{order[0]: 99}), append([]Attr{99}, order[1:]...))
			}
		}
	}
	if packed == 0 || fallback == 0 {
		t.Errorf("%d builds packed and %d fell back: want both paths exercised", packed, fallback)
	}
}

// TestSortedIndexBillsTheRowIDArrayOnly pins the one billing rule: an
// index charges its resident row-id array, 4 bytes a row, against
// MaxBytes on the packed path and on the comparator path alike — the
// packed keys are scratch that is gone when the build returns.
func TestSortedIndexBillsTheRowIDArrayOnly(t *testing.T) {
	narrow := New([]Attr{0, 1})
	wide := New([]Attr{0, 1, 2})
	for i := 0; i < 1000; i++ {
		narrow.Add(Tuple{Value(i % 37), Value(i)})
		wide.Add(Tuple{Value(i) * (math.MaxInt32 / 1000), -Value(i) * (math.MaxInt32 / 1000), Value(i)})
	}
	for name, r := range map[string]*Relation{"packed": narrow, "comparator": wide} {
		exact := &Limit{MaxBytes: 4 * int64(r.Len())}
		ix, err := NewSortedIndexLimited(r, r.Attrs(), exact)
		if err != nil {
			t.Fatalf("%s: a budget of exactly the row-id array refused the build: %v", name, err)
		}
		if ix.Bytes() != exact.MaxBytes {
			t.Errorf("%s: Bytes() = %d, want %d", name, ix.Bytes(), exact.MaxBytes)
		}
		if _, err := NewSortedIndexLimited(r, r.Attrs(), &Limit{MaxBytes: exact.MaxBytes - 1}); err == nil {
			t.Errorf("%s: a budget one byte under the row-id array admitted the build", name)
		}
	}
}

// FuzzSortedIndexOrder feeds arbitrary bytes as a relation — arity, an
// index order, then little-endian int32 values — and checks the built
// order against the reference comparator's.
func FuzzSortedIndexOrder(f *testing.F) {
	f.Add([]byte{1, 0b10, 1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		arity := 1 + int(data[0])%9
		pick := data[1]
		data = data[2:]
		attrs := make([]Attr, arity)
		for i := range attrs {
			attrs[i] = Attr(i)
		}
		r := New(attrs)
		buf := make(Tuple, arity)
		for len(data) >= 4*arity && r.Len() < 512 {
			for j := range buf {
				buf[j] = Value(binary.LittleEndian.Uint32(data[4*j:]))
			}
			r.Add(buf)
			data = data[4*arity:]
		}
		// pick rotates the schema and chooses how many columns to index.
		order := append(append([]Attr(nil), attrs[int(pick)%arity:]...), attrs[:int(pick)%arity]...)
		order = order[:1+int(pick>>4)%arity]
		checkAgainstReference(t, r, order)
	})
}
