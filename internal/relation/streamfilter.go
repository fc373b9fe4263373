package relation

// StreamFilter is the streaming member of the semijoin kernels: where
// SemijoinFilter reduces a materialized relation, StreamFilter is
// built once over the key columns of a (typically already-reduced)
// relation and then answers "could this tuple join with o?" for tuples
// arriving one at a time. The pipelined executor uses it to pre-reduce
// hash-join build sides whose input is itself a stream — rows that cannot
// join with the probe side's base relations are dropped before a single
// bucket is allocated. It is the semijoin key set (semijoin.go) behind an
// exported face.

import (
	"fmt"

	"projpush/internal/faultinject"
)

// StreamFilter answers streaming membership queries against the key
// columns of a built relation.
type StreamFilter struct{ set *keySet }

// NewStreamFilter builds a filter over o keyed by attrs (which must all be
// attributes of o). The key-set build charges lim like the other semijoin
// kernels.
func NewStreamFilter(o *Relation, attrs []Attr, lim *Limit) (*StreamFilter, error) {
	if err := lim.interrupted(); err != nil {
		return nil, err
	}
	faultinject.Sleep(faultinject.LatencyKernel)
	if faultinject.FailAlloc(faultinject.AllocSemijoin) {
		return nil, fmt.Errorf("%w: injected allocation failure", ErrMemBudget)
	}
	for _, a := range attrs {
		if !o.HasAttr(a) {
			return nil, fmt.Errorf("relation: filter attribute %d not in schema", a)
		}
	}
	f := &StreamFilter{newKeySet(o, o.colsOf(attrs))}
	lim.charge(int64(o.n))
	if err := lim.chargeBytes(f.Bytes()); err != nil {
		return nil, err
	}
	return f, nil
}

// Match reports whether t's columns pos (parallel to the attrs the filter
// was built with) equal the key columns of at least one row of o.
func (f *StreamFilter) Match(t Tuple, pos []int) bool { return f.set.contains(t, pos) }

// Bytes approximates the filter's resident memory: the key set; the arena
// belongs to o and is not counted.
func (f *StreamFilter) Bytes() int64 { return f.set.bytes() }
