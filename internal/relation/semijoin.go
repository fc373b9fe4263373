package relation

// Semijoin kernels. The Yannakakis full reducer (internal/engine) drives
// its seed walk and its two sweeps through SemijoinFilter, the in-place
// variant: reduction marks survivors in a bitmask and compacts the arena
// instead of copying tuples into a fresh relation, so a sweep that removes
// nothing allocates nothing beyond the key set. SemijoinLimited is the
// classic copying kernel under a Limit; Semijoin (ops.go) delegates to it.
// The pipeline's StreamFilter (streamfilter.go) is the third kernel.
//
// A semijoin only asks whether a key is present, so all three probe one
// keySet over the source's keys. When the keys pack (key.go), it is a
// bitmap over [min key, max key] if that takes no more bytes than the
// join table over the same rows, and the table otherwise; keys that do
// not pack go in the table as FNV hashes, and a hit is verified against
// the source row. The choice reads sizes the build already knows, so the
// bytes charged never exceed the table's.

import (
	"fmt"

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

// SemijoinLimited computes r ⋉ o (the tuples of r that join with at least
// one tuple of o) under lim, copying the surviving tuples into a fresh
// relation. With no shared attributes, the result is a copy of r when o is
// nonempty and empty otherwise.
func SemijoinLimited(r, o *Relation, lim *Limit) (*Relation, error) {
	if err := lim.interrupted(); err != nil {
		return nil, err
	}
	faultinject.Sleep(faultinject.LatencyKernel)
	if faultinject.FailAlloc(faultinject.AllocSemijoin) {
		return nil, fmt.Errorf("%w: injected allocation failure", ErrMemBudget)
	}
	shared := SharedAttrs(r, o)
	if len(shared) == 0 {
		if o.Empty() {
			return New(r.attrs), nil
		}
		out := r.Clone()
		if err := lim.chargeBytes(out.Bytes()); err != nil {
			return nil, err
		}
		return out, nil
	}
	set, rPos := newKeySet(o, o.colsOf(shared)), r.colsOf(shared)
	lim.charge(int64(o.n))
	if err := lim.chargeBytes(set.bytes()); err != nil {
		return nil, err
	}
	out := New(r.attrs)
	var touched, outBytes int64
	nextCheck := int64(deadlineCheckInterval)
	for i := 0; i < r.n; i++ {
		touched++
		if touched >= nextCheck {
			nextCheck = touched + deadlineCheckInterval
			if err := lim.interrupted(); err != nil {
				lim.charge(touched)
				return nil, err
			}
		}
		t := r.row(i)
		if !set.contains(t, rPos) {
			continue
		}
		out.Add(t)
		if err := lim.chargeMem(out, &outBytes); err != nil {
			lim.charge(touched)
			return nil, err
		}
	}
	lim.charge(touched)
	return out, nil
}

// SemijoinFilter reduces r to r ⋉ o without copying tuples: survivors are
// marked in a bitmask and, only when something was removed, the arena is
// compacted in place. It returns the reduced relation and the number of
// tuples removed.
//
// The returned relation may be r itself (always when nothing was removed);
// when r's storage is shared (a zero-copy Rename view), compaction copies
// the survivors into a fresh arena instead of overwriting rows a sibling
// still reads. Either way the caller must treat r as consumed and use only
// the returned relation.
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
	set, rPos := newKeySet(o, o.colsOf(shared)), r.colsOf(shared)
	lim.charge(int64(o.n))
	if err := lim.chargeBytes(set.bytes()); err != nil {
		return nil, 0, err
	}

	mask := make([]uint64, (r.n+63)/64)
	kept := 0
	var touched int64
	nextCheck := int64(deadlineCheckInterval)
	for i := 0; i < r.n; i++ {
		touched++
		if touched >= nextCheck {
			nextCheck = touched + deadlineCheckInterval
			if err := lim.interrupted(); err != nil {
				lim.charge(touched)
				return nil, 0, err
			}
		}
		if set.contains(r.row(i), rPos) {
			mask[i>>6] |= 1 << (i & 63)
			kept++
		}
	}
	lim.charge(touched)
	if kept == r.n {
		return r, 0, nil
	}
	removed := r.n - kept

	if r.isShared() {
		// A sibling view still reads this arena: copy the survivors out
		// instead of overwriting shared rows. The dedup table is left
		// stale and rebuilt lazily on the next membership query.
		data := make([]Value, 0, kept*r.arity)
		for i := 0; i < r.n; i++ {
			if mask[i>>6]&(1<<(i&63)) != 0 {
				data = append(data, r.row(i)...)
			}
		}
		out := &Relation{
			attrs:  r.attrs,
			pos:    r.pos,
			arity:  r.arity,
			data:   data,
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
		return out, removed, nil
	}

	// Private storage: compact the arena in place. No allocation, so
	// nothing to charge; the byte watermark (cap-based) only shrinks.
	w := 0
	for i := 0; i < r.n; i++ {
		if mask[i>>6]&(1<<(i&63)) == 0 {
			continue
		}
		if w != i {
			copy(r.data[w*r.arity:(w+1)*r.arity], r.row(i))
		}
		w++
	}
	r.n = kept
	r.data = r.data[:kept*r.arity]
	r.keys, r.refs, r.used = nil, nil, 0
	r.stale = true
	r.hdrs = nil
	r.dens.Store(nil)
	return r, removed, nil
}
