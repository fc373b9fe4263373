package relation

// The semijoin kernel. The Yannakakis full reducer (internal/engine) drives
// its seed walk and its two sweeps through SemijoinFilter, and so does the
// pipeline's pushdown phase; the pipeline's StreamFilter (streamfilter.go)
// is its streaming member. A semijoin only asks whether a key is present,
// and SemijoinFilter answers that in one of two ways.
//
// When the key is one column and a side is a zero-copy view of a stored
// arena (isShared), it reads that arena's column index (facts.go), built
// once and shared by every view. A view target is marked from its index,
// one lookup per source row, so the cost is the source plus the survivors,
// not the target. A view source is probed, one lookup per target row, and
// nothing is built. When both are views the smaller side is walked.
// JoinLimited (ops.go) probes it on a one-column key wider than its rows.
//
// Otherwise — a key of two or more columns, or two relations a request
// made (join outputs, reduced copies) — there is no index to read, and the
// kernel builds a keySet over the source's keys, which StreamFilter also
// probes. When the keys pack (key.go), it is a bitmap over [min key, max
// key] if that takes no more bytes than the join table over the same rows,
// and the table otherwise; keys that do not pack go in the table as FNV
// hashes, and a hit is verified against the source row. The choice reads
// sizes the build already knows, so the bytes charged never exceed the
// table's.
//
// Either way survivors are marked in a bitmask and copied out, or
// compacted in place, in arena order.

import (
	"fmt"
	"math/bits"

	"projpush/internal/faultinject"
)

// keySet is the membership structure of the semijoin kernels: the keys of
// o's rows over the columns pos.
type keySet struct {
	o      *Relation
	pos    []int
	exact  bool     // the keys pack: a hit needs no verification
	bitmap bool     // bits holds the keys; else table does
	lo     uint64   // the bitmap's first key
	bits   []uint64 // bit k-lo is set when key k is present
	table  joinTable
}

func newKeySet(o *Relation, pos []int) *keySet {
	s := &keySet{o: o, pos: pos, exact: o.packs(pos)}
	keys := make([]uint64, o.n)
	lo, hi := ^uint64(0), uint64(0)
	for i := range keys {
		keys[i], _ = rowKey(o.row(i), pos, s.exact)
		lo, hi = min(lo, keys[i]), max(hi, keys[i])
	}
	if s.exact {
		words := uint64(0)
		if o.n > 0 {
			words = (hi-lo)/64 + 1
		}
		if words*8 <= uint64(joinTableBytes(o.n)) {
			s.bitmap, s.lo, s.bits = true, lo, make([]uint64, words)
			for _, k := range keys {
				s.bits[(k-lo)/64] |= 1 << ((k - lo) % 64)
			}
			return s
		}
	}
	s.table = newJoinTable(keys)
	return s
}

// contains reports whether t's columns pos, parallel to the set's, equal
// the key columns of at least one row of o.
func (s *keySet) contains(t Tuple, pos []int) bool {
	k, ok := rowKey(t, pos, s.exact)
	switch {
	case !ok:
		return false
	case s.bitmap:
		d := k - s.lo
		return d < uint64(len(s.bits))*64 && s.bits[d/64]&(1<<(d%64)) != 0
	case s.exact:
		return s.table.first(k) != 0
	}
	for e := s.table.first(k); e != 0; e = s.table.next[e-1] {
		if sameKey(s.o.row(int(s.table.rowOf[e-1])), s.pos, t, pos) {
			return true
		}
	}
	return false
}

// bytes is the set's resident memory; the rows belong to o.
func (s *keySet) bytes() int64 {
	if s.bitmap {
		return int64(len(s.bits)) * 8
	}
	return s.table.bytes()
}

// ticker counts the tuples a kernel touches and polls its limit for an
// interrupt every deadlineCheckInterval of them.
type ticker struct {
	lim           *Limit
	touched, next int64
}

func (t *ticker) touch(n int64) error {
	t.touched += n
	if t.touched < t.next {
		return nil
	}
	t.next = t.touched + deadlineCheckInterval
	return t.lim.interrupted()
}

// SemijoinFilter reduces r to r ⋉ o: survivors are marked in a bitmask
// and, only when something was removed, copied out or compacted in place.
// It returns the reduced relation and the number of tuples removed. With
// no shared attributes, r survives whole when o is nonempty and not at all
// otherwise. Limit.Work is charged the tuples touched: the source and the
// survivors when r's column index is read, r when o's is probed, and both
// sides when a key set is built.
//
// The returned relation may be r itself (always when nothing was removed);
// when r's storage is shared (a zero-copy Rename view), the survivors are
// copied into a fresh arena instead of overwriting rows a sibling still
// reads. Either way the caller must treat r as consumed and use only the
// returned relation.
func SemijoinFilter(r, o *Relation, lim *Limit) (*Relation, int, error) {
	if err := lim.interrupted(); err != nil {
		return nil, 0, err
	}
	faultinject.Sleep(faultinject.LatencyKernel)
	if faultinject.FailAlloc(faultinject.AllocSemijoin) {
		return nil, 0, fmt.Errorf("%w: injected allocation failure", ErrMemBudget)
	}
	shared := SharedAttrs(r, o)
	if len(shared) == 0 {
		if o.Empty() && r.n > 0 {
			return New(r.attrs), r.n, nil
		}
		return r, 0, nil
	}
	if r.n == 0 {
		return r, 0, nil
	}

	rPos, oPos := r.colsOf(shared), o.colsOf(shared)
	rView, oView := r.isShared(), o.isShared()
	indexed := len(shared) == 1
	mask := make([]uint64, (r.n+63)/64)
	tick := ticker{lim: lim, next: deadlineCheckInterval}
	kept := 0
	var err error
	if indexed && rView && (!oView || o.n <= r.n) {
		// Walk o into r's index. The key is exact, so a chain holds the
		// rows of one value: if its first row is marked, all of it is,
		// and a repeated source key costs one lookup.
		ix := r.columnIndex(rPos[0])
		for i := 0; i < o.n && err == nil; i++ {
			k, _ := packKey(o.row(i), oPos)
			before := kept
			if e := ix.first(k); e != 0 {
				if head := ix.rowOf[e-1]; mask[head>>6]&(1<<(head&63)) == 0 {
					for ; e != 0; e = ix.next[e-1] {
						j := ix.rowOf[e-1]
						mask[j>>6] |= 1 << (j & 63)
						kept++
					}
				}
			}
			err = tick.touch(int64(1 + kept - before))
		}
	} else {
		var set *keySet
		if indexed && oView {
			// o's column index is the key set: resident, nothing to charge.
			set = &keySet{o: o, pos: oPos, exact: true, table: *o.columnIndex(oPos[0])}
		} else {
			// No index to read: neither side is a view, or the key has
			// two or more columns.
			set = newKeySet(o, oPos)
			lim.charge(int64(o.n))
			if err := lim.chargeBytes(set.bytes()); err != nil {
				return nil, 0, err
			}
		}
		for i := 0; i < r.n && err == nil; i++ {
			if set.contains(r.row(i), rPos) {
				mask[i>>6] |= 1 << (i & 63)
				kept++
			}
			err = tick.touch(1)
		}
	}
	lim.charge(tick.touched)
	if err != nil {
		return nil, 0, err
	}
	if kept == r.n {
		return r, 0, nil
	}

	// Move the survivors to the front of dst by walking the mask's set
	// bits, in arena order. A view's sibling still reads this arena, so a
	// view copies them into a fresh one; a private arena compacts in place
	// (each survivor moves down, never up).
	dst := r.data[:kept*r.arity]
	if rView {
		dst = make([]Value, kept*r.arity)
	}
	w := 0
	for wi, word := range mask {
		for ; word != 0; word &= word - 1 {
			w += copy(dst[w:], r.row(wi*64+bits.TrailingZeros64(word)))
		}
	}
	if rView {
		// The dedup table is left stale and rebuilt lazily on the next
		// membership query.
		out := &Relation{
			attrs:  r.attrs,
			arity:  r.arity,
			data:   dst,
			n:      kept,
			cols:   r.cols,
			exact:  r.exact,
			colMin: append([]Value(nil), r.colMin...),
			colMax: append([]Value(nil), r.colMax...),
			stale:  true,
		}
		if err := lim.chargeBytes(out.Bytes()); err != nil {
			return nil, 0, err
		}
		return out, r.n - kept, nil
	}
	// In place: no allocation, so nothing to charge; the byte watermark
	// (cap-based) only shrinks.
	removed := r.n - kept
	r.n = kept
	r.data = dst
	r.keys, r.refs, r.used = nil, nil, 0
	r.stale = true
	r.hdrs = nil
	r.facts.Store(nil)
	return r, removed, nil
}
