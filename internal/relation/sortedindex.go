package relation

import (
	"cmp"
	"math/bits"
	"slices"
)

// SortedIndex is one stored arena's rows ordered lexicographically by a
// column sequence, laid out column by column: vals[d][i] is the depth-d
// value of the i-th row in sorted order, so a probe reads one slice
// element, with no row id to chase into the arena. It is the access path
// of the worst-case-optimal join executor: a leapfrog intersection
// narrows a [lo,hi) bracket one column (depth) at a time, and within a
// bracket where depths 0..d-1 are constant, depth d is sorted, so
// galloping SeekGE/SeekGT find the next candidate value and the end of
// its run in O(log gap). An index is resident state of its arena
// (facts.go). A dense two-column index also keeps, for each depth-0 value
// from the column's minimum to its maximum, its run's depth-1 values as a
// bitmap over the words from the depth-1 minimum's to the maximum's, word
// w holding the values 64w … 64w+63: word boundaries are multiples of 64,
// so any two runs' bitmaps AND word for word (leapfrog's last-column
// levels). They are kept only when no bigger than the columns (8 bytes a
// row), the semijoin key set's bitmap-or-table rule. By that rule an index
// whose depth-0 range is no wider than its rows keeps each value's start,
// so a join (ops.go) finds a key's run, contiguous in every column, in O(1).
//
// Sorting packs each row's indexed columns, offset by the column minimum
// (colBits wide each), with the row id as the least significant field
// into one uint64 whenever the column ranges and the row count together
// fit 64 bits, and sorts machine words; otherwise it compares arena
// columns. Rows equal on every indexed column
// are ordered by row id either way, so the order is deterministic.
type SortedIndex struct {
	n         int
	vals      [][]Value // one column of sorted values per depth
	bits      []uint64  // the runs' bitmaps, span words each; nil when not kept
	span, off int       // position i's run's word w is bits[vals[0][i]·span + off + w]
	starts    []int32   // starts[v-vals[0][0]]: the first position whose depth-0 value is ≥ v; nil when not kept
}

// newSortedIndex sorts r's rows by cols and copies the indexed columns
// out in that order; the row ids are scratch.
func newSortedIndex(r *Relation, cols []int) *SortedIndex {
	rows := make([]int32, r.n)
	idBits := uint(bits.Len64(uint64(max(r.n, 1) - 1)))
	width := make([]uint, len(cols))
	total := idBits
	for k, c := range cols {
		width[k] = r.colBits(c)
		total += width[k]
	}
	if total <= 64 {
		keys := make([]uint64, r.n)
		for i := range keys {
			t := r.row(i)
			var key uint64
			for k, c := range cols {
				key = key<<width[k] | uint64(int64(t[c])-int64(r.colMin[c]))
			}
			keys[i] = key<<idBits | uint64(i)
		}
		slices.Sort(keys)
		for i, key := range keys {
			rows[i] = int32(key & (1<<idBits - 1))
		}
	} else {
		for i := range rows {
			rows[i] = int32(i)
		}
		slices.SortFunc(rows, func(a, b int32) int {
			ta, tb := r.row(int(a)), r.row(int(b))
			for _, c := range cols {
				if ta[c] != tb[c] {
					return cmp.Compare(ta[c], tb[c])
				}
			}
			return cmp.Compare(a, b)
		})
	}

	ix := &SortedIndex{n: r.n}
	for _, c := range cols {
		col := make([]Value, r.n)
		for i, row := range rows {
			col[i] = r.data[int(row)*r.arity+c]
		}
		ix.vals = append(ix.vals, col)
	}
	ix.buildBitmaps()
	ix.buildStarts()
	return ix
}

// buildStarts keeps the depth-0 values' starts when no bigger than the column.
func (ix *SortedIndex) buildStarts() {
	if ix.n == 0 || len(ix.vals) == 0 || int64(ix.vals[0][ix.n-1])-int64(ix.vals[0][0]) >= int64(ix.n) {
		return
	}
	c0 := ix.vals[0]
	ix.starts = make([]int32, c0[ix.n-1]-c0[0]+1)
	for i, k := 0, Value(0); i < ix.n; i++ {
		for ; k <= c0[i]-c0[0]; k++ {
			ix.starts[k] = int32(i)
		}
	}
}

// run returns the positions [lo,hi) whose depth-0 value is v; starts must be kept.
func (ix *SortedIndex) run(v Value) (lo, hi int) {
	k := int64(v) - int64(ix.vals[0][0])
	if k < 0 || k >= int64(len(ix.starts)) {
		return 0, 0
	}
	if hi = ix.n; k+1 < int64(len(ix.starts)) {
		hi = int(ix.starts[k+1])
	}
	return int(ix.starts[k]), hi
}

// buildBitmaps keeps a two-column index's run bitmaps: no more words than rows.
func (ix *SortedIndex) buildBitmaps() {
	if len(ix.vals) != 2 || ix.n == 0 {
		return
	}
	c0, c1 := ix.vals[0], ix.vals[1]
	first := int64(slices.Min(c1)) >> 6
	span, runs := int64(slices.Max(c1))>>6-first+1, int64(c0[ix.n-1])-int64(c0[0])+1
	if runs*span > int64(ix.n) {
		return
	}
	ix.bits, ix.span, ix.off = make([]uint64, runs*span), int(span), -int(int64(c0[0])*span+first)
	for i, v := range c1 {
		ix.bits[int(c0[i])*ix.span+ix.off+int(v>>6)] |= 1 << (uint32(v) & 63)
	}
}

// Len returns the number of indexed rows.
func (ix *SortedIndex) Len() int { return ix.n }

// Bytes is the index's resident memory: its columns, run bitmaps and start offsets.
func (ix *SortedIndex) Bytes() int64 {
	return int64(ix.n*len(ix.vals)*4 + len(ix.bits)*8 + len(ix.starts)*4)
}

// Value returns the depth-d column value of the i-th row in sorted order.
func (ix *SortedIndex) Value(i, d int) Value { return ix.vals[d][i] }

// HasBitmaps reports whether the index keeps its runs' bitmaps.
func (ix *SortedIndex) HasBitmaps() bool { return ix.bits != nil }

// BitWord returns word w, the depth-1 values 64w … 64w+63, of the bitmap of
// position i's run, for w from its first value's word (v>>6) to its last's.
func (ix *SortedIndex) BitWord(i, w int) uint64 { return ix.bits[int(ix.vals[0][i])*ix.span+ix.off+w] }

// SeekGE returns the smallest position in [lo,hi) whose depth-d value is
// >= v, or hi when none is. The bracket must be one where depths 0..d-1
// are constant (so depth d is sorted within it). The search gallops from
// lo — constant when the answer is adjacent, logarithmic in the gap —
// which is what makes leapfrog intersection's total work proportional to
// the smallest participating relation, not the largest.
func (ix *SortedIndex) SeekGE(d, lo, hi int, v Value) int {
	return ix.seek(d, lo, hi, int64(v))
}

// SeekGT is SeekGE with a strict bound: the smallest position in [lo,hi)
// whose depth-d value is > v. The bound is v+1 in 64 bits, so finding the
// end of a run at the top of the Value range does not overflow.
func (ix *SortedIndex) SeekGT(d, lo, hi int, v Value) int {
	return ix.seek(d, lo, hi, int64(v)+1)
}

// seek returns the first position in [lo,hi) whose depth-d value is at
// least floor, or hi.
func (ix *SortedIndex) seek(d, lo, hi int, floor int64) int {
	if lo >= hi {
		return hi
	}
	col := ix.vals[d]
	if int64(col[lo]) >= floor {
		return lo
	}
	// Gallop: double the step until it overshoots or runs off the end,
	// leaving a bracket (prev, bound) where prev fails and bound passes
	// or is hi.
	prev, bound := lo, hi
	for step := 1; lo+step < hi; step <<= 1 {
		i := lo + step
		if int64(col[i]) >= floor {
			bound = i
			break
		}
		prev = i
	}
	for prev+1 < bound {
		mid := int(uint(prev+bound) >> 1)
		if int64(col[mid]) >= floor {
			bound = mid
		} else {
			prev = mid
		}
	}
	return bound
}
