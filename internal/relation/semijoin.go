package relation

// Semijoin kernels. The Yannakakis full reducer (internal/engine) drives
// its seed walk and its two sweeps through SemijoinFilter, the in-place
// variant: reduction marks survivors in a bitmask and compacts the arena
// instead of copying tuples into a fresh relation, so a sweep that removes
// nothing allocates nothing beyond the probe table. SemijoinLimited is the
// classic copying kernel under a Limit; Semijoin (ops.go) delegates to it.

import (
	"fmt"

	"projpush/internal/faultinject"
)

// semijoinProbe is the shared matcher of the semijoin kernels: a hash
// table over o's rows keyed by the shared attributes, probed with rows
// of r.
type semijoinProbe struct {
	o          *Relation
	rKey       keyer
	oPos, rPos []int
	needVerify bool
	table      joinTable
}

func newSemijoinProbe(r, o *Relation, shared []Attr) *semijoinProbe {
	p := &semijoinProbe{
		o:    o,
		rKey: newKeyer(r, shared),
		oPos: make([]int, len(shared)),
		rPos: make([]int, len(shared)),
	}
	oKey := newKeyer(o, shared)
	alignKeyers(&oKey, &p.rKey)
	p.needVerify = !oKey.exact || !p.rKey.exact
	for i, a := range shared {
		p.oPos[i] = o.pos[a]
		p.rPos[i] = r.pos[a]
	}
	oKeys := make([]uint64, o.n)
	for i := range oKeys {
		oKeys[i] = oKey.key(o.row(i))
	}
	p.table = newJoinTable(oKeys)
	return p
}

// matches reports whether r-row t joins with at least one row of o.
func (p *semijoinProbe) matches(t Tuple) bool {
	for e := p.table.first(p.rKey.key(t)); e != 0; e = p.table.next[e-1] {
		if p.needVerify {
			ot := p.o.row(int(p.table.rowOf[e-1]))
			match := true
			for j := range p.rPos {
				if ot[p.oPos[j]] != t[p.rPos[j]] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
		}
		return true
	}
	return false
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
	probe := newSemijoinProbe(r, o, shared)
	lim.charge(int64(o.n))
	if err := lim.chargeBytes(probe.table.bytes()); err != nil {
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
		if !probe.matches(t) {
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
	probe := newSemijoinProbe(r, o, shared)
	lim.charge(int64(o.n))
	if err := lim.chargeBytes(probe.table.bytes()); err != nil {
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
		if probe.matches(r.row(i)) {
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
