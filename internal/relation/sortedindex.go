package relation

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"projpush/internal/faultinject"
)

// SortedIndex is a sorted row-id view over a relation's flat arena: the
// rows of the relation ordered lexicographically by a caller-chosen
// column sequence, with no tuple copies — the index stores one int32 row
// id per tuple and reads values straight out of the arena. It is the
// access path of the worst-case-optimal join executor: a leapfrog
// intersection narrows a [lo,hi) row-id bracket one column (depth) at a
// time, and within a bracket where depths 0..d-1 are constant, depth d is
// sorted, so galloping SeekGE/SeekGT find the next candidate value and
// the end of its run in O(log gap).
//
// Sorting packs each row's indexed columns, offset by the column minimum
// (colBits wide each), with the row id as the least significant field
// into one uint64 whenever the column ranges and the row count together
// fit 64 bits, and sorts machine words; otherwise it compares arena
// columns. Rows equal on every indexed column
// are ordered by row id either way, so the order is deterministic.
type SortedIndex struct {
	rel  *Relation
	cols []int   // arena column index per depth
	rows []int32 // row ids, sorted lexicographically by cols
}

// NewSortedIndex builds a sorted index over r ordered by attrs. It is
// NewSortedIndexLimited with no limits; it never fails on a valid schema.
func NewSortedIndex(r *Relation, attrs []Attr) (*SortedIndex, error) {
	return NewSortedIndexLimited(r, attrs, nil)
}

// NewSortedIndexLimited builds a sorted index over r ordered by attrs
// (each of which must be in r's schema) under lim: the resident row-id
// array is charged against the byte budget — the sort's key scratch is
// gone before the build returns and is not — and the rows touched are
// charged as work. The index reads r's arena by column position, so it
// serves every renamed view of the same storage.
func NewSortedIndexLimited(r *Relation, attrs []Attr, lim *Limit) (*SortedIndex, error) {
	if err := lim.interrupted(); err != nil {
		return nil, err
	}
	faultinject.Sleep(faultinject.LatencyKernel)
	if faultinject.FailAlloc(faultinject.AllocJoin) {
		return nil, fmt.Errorf("%w: injected allocation failure", ErrMemBudget)
	}
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		j := r.Pos(a)
		if j < 0 {
			return nil, fmt.Errorf("relation.NewSortedIndex: attribute %d not in schema", a)
		}
		cols[i] = j
	}
	ix := &SortedIndex{rel: r, cols: cols, rows: make([]int32, r.n)}
	lim.charge(int64(r.n))
	if err := lim.chargeBytes(ix.Bytes()); err != nil {
		return nil, err
	}
	if r.n == 0 {
		return ix, nil
	}

	idBits := uint(bits.Len64(uint64(r.n - 1)))
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
			ix.rows[i] = int32(key & (1<<idBits - 1))
		}
		return ix, lim.interrupted()
	}

	for i := range ix.rows {
		ix.rows[i] = int32(i)
	}
	slices.SortFunc(ix.rows, func(a, b int32) int {
		ta, tb := r.row(int(a)), r.row(int(b))
		for _, c := range cols {
			if ta[c] != tb[c] {
				return cmp.Compare(ta[c], tb[c])
			}
		}
		return cmp.Compare(a, b)
	})
	return ix, lim.interrupted()
}

// Len returns the number of indexed rows.
func (ix *SortedIndex) Len() int { return len(ix.rows) }

// Depths returns the number of indexed columns.
func (ix *SortedIndex) Depths() int { return len(ix.cols) }

// Bytes approximates the index's resident memory: the row-id array (the
// arena it points into is accounted to its relation).
func (ix *SortedIndex) Bytes() int64 { return int64(len(ix.rows)) * 4 }

// Value returns the depth-d column value of the i-th row in sorted order.
func (ix *SortedIndex) Value(i, d int) Value {
	return ix.rel.data[int(ix.rows[i])*ix.rel.arity+ix.cols[d]]
}

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
	data, rows, stride, col := ix.rel.data, ix.rows, ix.rel.arity, ix.cols[d]
	if int64(data[int(rows[lo])*stride+col]) >= floor {
		return lo
	}
	// Gallop: double the step until it overshoots or runs off the end,
	// leaving a bracket (prev, bound) where prev fails and bound passes
	// or is hi.
	prev, bound := lo, hi
	for step := 1; lo+step < hi; step <<= 1 {
		i := lo + step
		if int64(data[int(rows[i])*stride+col]) >= floor {
			bound = i
			break
		}
		prev = i
	}
	for prev+1 < bound {
		mid := int(uint(prev+bound) >> 1)
		if int64(data[int(rows[mid])*stride+col]) >= floor {
			bound = mid
		} else {
			prev = mid
		}
	}
	return bound
}
