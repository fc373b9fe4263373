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
	ix, err := r.SortedIndex(order)
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
			for d := 0; d < len(ix.vals); d++ {
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
		checkSeeks(t, ix, func(lo, hi, d int) []Value {
			probes := []Value{0, 1, Value(tc.maxVal), Value(tc.maxVal) + 1, 1<<31 - 1}
			for k := 0; k < 16; k++ {
				probes = append(probes, Value(rng.Int31n(tc.maxVal+1)))
			}
			return probes
		})
	}
}

// checkSeeks drives SeekGE and SeekGT against a linear scan over every
// bracket of ix: the whole index at depth 0 and, at each deeper depth d,
// every run of rows constant on depths 0..d-1. Each bracket is probed at
// its first and last value and at what probes adds.
func checkSeeks(t *testing.T, ix *SortedIndex, probes func(lo, hi, d int) []Value) {
	t.Helper()
	linear := func(d, lo, hi int, v Value, strict bool) int {
		for i := lo; i < hi; i++ {
			u := ix.Value(i, d)
			if (strict && u > v) || (!strict && u >= v) {
				return i
			}
		}
		return hi
	}
	type bracket struct{ d, lo, hi int }
	brackets := []bracket{{0, 0, ix.Len()}}
	for d := 1; d < len(ix.vals); d++ {
		lo := 0
		for lo < ix.Len() {
			hi := lo + 1
			for hi < ix.Len() && slices.IndexFunc(ix.vals[:d], func(col []Value) bool { return col[hi] != col[lo] }) < 0 {
				hi++
			}
			brackets = append(brackets, bracket{d, lo, hi})
			lo = hi
		}
	}
	for _, br := range brackets {
		vs := probes(br.lo, br.hi, br.d)
		if br.hi > br.lo {
			vs = append(vs, ix.Value(br.lo, br.d), ix.Value(br.hi-1, br.d))
		}
		for _, v := range vs {
			if got, want := ix.SeekGE(br.d, br.lo, br.hi, v), linear(br.d, br.lo, br.hi, v, false); got != want {
				t.Fatalf("%d rows: SeekGE(d=%d,[%d,%d),%d) = %d, linear scan %d", ix.Len(), br.d, br.lo, br.hi, v, got, want)
			}
			if got, want := ix.SeekGT(br.d, br.lo, br.hi, v), linear(br.d, br.lo, br.hi, v, true); got != want {
				t.Fatalf("%d rows: SeekGT(d=%d,[%d,%d),%d) = %d, linear scan %d", ix.Len(), br.d, br.lo, br.hi, v, got, want)
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
	ix, err := r.SortedIndex([]Attr{0})
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

// checkAgainstReference reads r's index over attrs and compares it with
// the reference's row order, column for column: the depth-d value at
// position i must be the indexed column of the reference's i-th row.
func checkAgainstReference(t *testing.T, r *Relation, attrs []Attr) *SortedIndex {
	t.Helper()
	ix, err := r.SortedIndex(attrs)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		cols[i] = r.Pos(a)
	}
	want := referenceOrder(r, cols)
	if ix.Len() != len(want) || len(ix.vals) != len(cols) {
		t.Fatalf("index is %d rows × %d depths, want %d × %d", ix.Len(), len(ix.vals), len(want), len(cols))
	}
	for d, c := range cols {
		for i, row := range want {
			if got := ix.Value(i, d); got != r.row(int(row))[c] {
				t.Fatalf("arity %d, %d rows indexed by %v (colMin %v colMax %v): depth %d position %d holds %d, the comparator's row %d has %d",
					r.arity, r.n, attrs, r.colMin, r.colMax, d, i, got, row, r.row(int(row))[c])
			}
		}
	}
	checkBitmaps(t, ix)
	checkStarts(t, ix)
	return ix
}

// checkStarts checks a sorted index's start offsets against its depth-0
// column. The size rule: a nonempty index keeps them exactly when its
// depth-0 range holds no more values than it has rows, so they never
// outweigh that column. Kept, run(v) for every value in the range and one
// either side of it is the positions whose depth-0 value is v.
func checkStarts(t *testing.T, ix *SortedIndex) {
	t.Helper()
	n := ix.Len()
	kept := n > 0 && int64(ix.vals[0][n-1])-int64(ix.vals[0][0]) < int64(n)
	if (ix.starts != nil) != kept || len(ix.starts) > n {
		t.Fatalf("%d rows over depth-0 values %v: %d start offsets, want kept %v and no more than the rows", n, ix.vals[0], len(ix.starts), kept)
	}
	if !kept {
		return
	}
	for v := int64(ix.vals[0][0]) - 1; v <= int64(ix.vals[0][n-1])+1; v++ {
		if v < math.MinInt32 || v > math.MaxInt32 {
			continue
		}
		lo, hi := ix.run(Value(v))
		wantLo := sort.Search(n, func(i int) bool { return int64(ix.vals[0][i]) >= v })
		wantHi := sort.Search(n, func(i int) bool { return int64(ix.vals[0][i]) > v })
		if hi-lo != wantHi-wantLo || (hi > lo && lo != wantLo) {
			t.Fatalf("run(%d) = [%d,%d), want [%d,%d) over depth-0 values %v", v, lo, hi, wantLo, wantHi, ix.vals[0])
		}
	}
}

// checkBitmaps checks a sorted index's run bitmaps against its columns.
// The size rule: a nonempty two-column index keeps them exactly when the
// depth-0 range's runs × the words from the depth-1 minimum's word to the
// maximum's are no more than its rows, so they never outweigh its columns,
// and Bytes counts them. Kept, the bitmap of each depth-0 value in range
// has a bit set exactly for each depth-1 value of its run (none for a
// value with no run), and BitWord at every position of a run reads it.
func checkBitmaps(t *testing.T, ix *SortedIndex) {
	t.Helper()
	columns := int64(ix.Len()) * int64(len(ix.vals)) * 4
	var runs, first, span int64
	if len(ix.vals) == 2 && ix.Len() > 0 {
		c0, c1 := ix.vals[0], ix.vals[1]
		first = int64(slices.Min(c1)) >> 6
		runs, span = int64(c0[ix.Len()-1])-int64(c0[0])+1, int64(slices.Max(c1))>>6-first+1
	}
	kept := runs > 0 && runs*span <= int64(ix.Len())
	if ix.HasBitmaps() != kept {
		t.Fatalf("%d rows × %d depths, %d runs × %d words: bitmaps kept %v, want %v", ix.Len(), len(ix.vals), runs, span, ix.HasBitmaps(), kept)
	}
	want := columns + int64(len(ix.starts))*4
	if kept {
		want += runs * span * 8
	}
	if ix.Bytes() != want || ix.Bytes() > 2*columns+int64(ix.Len())*4 {
		t.Fatalf("Bytes() = %d, want %d: at most twice the columns' %d, and the start offsets no more than the depth-0 column", ix.Bytes(), want, columns)
	}
	if !kept {
		return
	}
	members := map[[2]Value]bool{}
	for i := 0; i < ix.Len(); i++ {
		members[[2]Value{ix.Value(i, 0), ix.Value(i, 1)}] = true
		r := int64(ix.Value(i, 0)) - int64(ix.Value(0, 0))
		for w := int64(0); w < span; w++ {
			if got := ix.BitWord(i, int(first+w)); got != ix.bits[r*span+w] {
				t.Fatalf("BitWord(%d, %d) = %#x, the run's word is %#x", i, first+w, got, ix.bits[r*span+w])
			}
		}
	}
	for r := int64(0); r < runs; r++ {
		v0 := Value(int64(ix.Value(0, 0)) + r)
		for w := int64(0); w < span; w++ {
			word := ix.bits[r*span+w]
			for b := int64(0); b < 64; b++ {
				v1 := (first+w)*64 + b
				in := v1 >= math.MinInt32 && v1 <= math.MaxInt32 && members[[2]Value{v0, Value(v1)}]
				if set := word&(1<<b) != 0; set != in {
					t.Fatalf("run %d bit for %d is %v, want %v", v0, v1, set, in)
				}
			}
		}
	}
}

// TestSortedIndexMatchesComparator is the packed build's property test:
// over arities 1–9, indexed on a random subset of the columns in random
// order (so rows tie on the indexed prefix and row id decides), with
// value ranges that are tiny, negative, the whole of int32, and mixed, the
// row order is exactly the reference comparator's — whether the keys fit
// 64 bits or the build falls back to comparing columns — and the run
// bitmaps and start offsets each size rule keeps read the same rows.
func TestSortedIndexMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(20040314))
	ranges := []struct {
		name   string
		lo, hi int64
	}{
		{"tiny", 0, 3},
		{"byte", 0, 255},
		{"negative", -70000, 500},
		{"offset", -100, -40}, // no column minimum on a word boundary
		{"wide", 0, 1 << 20},
		{"full", math.MinInt32, math.MaxInt32},
	}
	packed, fallback, bitmaps, starts := 0, 0, 0, 0
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
				ix := checkAgainstReference(t, r, order)
				if ix.HasBitmaps() {
					bitmaps++
				}
				if ix.starts != nil {
					starts++
				}
				// A renamed view shares the arena and the order.
				checkAgainstReference(t, Rename(r, map[Attr]Attr{order[0]: 99}), append([]Attr{99}, order[1:]...))
			}
		}
	}
	if packed == 0 || fallback == 0 || bitmaps == 0 || starts == 0 {
		t.Errorf("%d builds packed, %d fell back, %d kept run bitmaps and %d start offsets: want every path exercised", packed, fallback, bitmaps, starts)
	}
}

// TestSortedIndexBillsTheRowIDArrayOnly pins the one billing rule. The
// index no longer keeps the row-id array its name recalls: it holds one
// Value per row and indexed column, and the arena's resident bill grows by
// exactly that, n × depth × 4 bytes, on the packed path and on the
// comparator path alike — the packed keys and row ids are scratch that is
// gone when the build returns, and nothing of theirs is billed — plus the
// run bitmaps a dense two-column index keeps, narrow's 37 runs of 16 words,
// and the start offsets of a depth-0 range no wider than the rows, narrow's
// 37 values at either depth. wide's columns span 2^31 values, so its size
// rules keep neither.
func TestSortedIndexBillsTheRowIDArrayOnly(t *testing.T) {
	narrow := New([]Attr{0, 1})
	wide := New([]Attr{0, 1, 2})
	for i := 0; i < 1000; i++ {
		narrow.Add(Tuple{Value(i % 37), Value(i)})
		wide.Add(Tuple{Value(i) * (math.MaxInt32 / 1000), -Value(i) * (math.MaxInt32 / 1000), Value(i)})
	}
	for name, r := range map[string]*Relation{"packed": narrow, "comparator": wide} {
		for depth := 1; depth <= r.Arity(); depth++ {
			before := r.ResidentIndexBytes()
			ix, err := r.SortedIndex(r.Attrs()[:depth])
			if err != nil {
				t.Fatal(err)
			}
			want := int64(r.Len()) * int64(depth) * 4
			if name == "packed" {
				want += 37 * 4
			}
			if name == "packed" && depth == 2 {
				want += 37 * 16 * 8
			}
			if ix.Bytes() != want {
				t.Errorf("%s, depth %d: Bytes() = %d, want %d", name, depth, ix.Bytes(), want)
			}
			if got := r.ResidentIndexBytes() - before; got != want {
				t.Errorf("%s, depth %d: resident bill grew by %d, want %d", name, depth, got, want)
			}
		}
	}
}

// TestSortedIndexLimits checks what bounds an index's cost now that its
// build takes no Limit: one build per column order, however often and
// through whichever view it is asked for, so a repeat request neither
// rebuilds nor bills again; and an attribute outside the schema fails
// before anything is built.
func TestSortedIndexLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r, ix, order := randomIndexed(t, rng, 1000, 2, 50)
	billed := r.ResidentIndexBytes()
	if want := ix.Bytes(); billed != want {
		t.Fatalf("resident bill after one build = %d, want %d", billed, want)
	}
	again, err := r.SortedIndex(order)
	if err != nil {
		t.Fatal(err)
	}
	renamed := Rename(r, map[Attr]Attr{order[0]: 99})
	viaView, err := renamed.SortedIndex(append([]Attr{99}, order[1:]...))
	if err != nil {
		t.Fatal(err)
	}
	if again != ix || viaView != ix {
		t.Error("a repeat request for one column order built a second index")
	}
	if got := r.ResidentIndexBytes(); got != billed {
		t.Errorf("resident bill after repeat requests = %d, want %d", got, billed)
	}
	if _, err := r.SortedIndex([]Attr{order[0], 99}); err == nil {
		t.Fatal("indexing a missing attribute must fail")
	}
	if got := r.ResidentIndexBytes(); got != billed {
		t.Errorf("a failed request billed %d bytes", got-billed)
	}
}

// FuzzSortedIndexOrder feeds arbitrary bytes as a relation — arity, an
// index order, then little-endian int32 values — and checks the index's
// columns, run bitmaps and start offsets against the reference
// comparator's rows, and its seeks against a linear scan of every
// bracket. The seeds index two
// columns: negative values whose minima sit off a word boundary and whose
// runs cross one (bitmaps kept), and the ends of int32 (none kept).
func FuzzSortedIndexOrder(f *testing.F) {
	f.Add([]byte{1, 0b10, 1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0})
	pairs := func(vs ...int32) []byte {
		data := []byte{1, 0x10} // arity 2, both columns in schema order
		for _, v := range vs {
			data = binary.LittleEndian.AppendUint32(data, uint32(v))
		}
		return data
	}
	f.Add(pairs(-3, -65, -3, -1, -3, 0, -2, -64, -2, -1, -2, 0, -2, -65, -3, -64))
	f.Add(pairs(-70, 5, -70, -5, -69, 63, -69, 64, -69, -5, -70, 63))
	f.Add(pairs(math.MinInt32, math.MinInt32, math.MaxInt32, math.MaxInt32, 0, 0, math.MinInt32, math.MaxInt32))
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
		ix := checkAgainstReference(t, r, order)
		checkSeeks(t, ix, func(lo, hi, d int) []Value {
			var vs []Value
			if hi > lo {
				first, last := int64(ix.Value(lo, d)), int64(ix.Value(hi-1, d))
				for _, v := range []int64{first - 1, first + 1, last - 1, last + 1, (first + last) / 2} {
					if v >= math.MinInt32 && v <= math.MaxInt32 {
						vs = append(vs, Value(v))
					}
				}
			}
			return append(vs, math.MinInt32, math.MaxInt32)
		})
	})
}
