package relation

// StreamTable is the open-addressing hash-join build table for streamed
// inputs: rows arrive one at a time (a Volcano-style iterator draining its
// build side), are copied into a flat arena, and are then probed by key
// equality on a column subset. It is the same kernel stack as the
// relational join — packed-uint64/FNV key split, splitmix-mixed
// open-addressing table with flat duplicate chains — exported so the
// engine's pull pipeline shares one hot path with the materializing
// executors instead of building string keys into a Go map.
//
// Key mode mirrors keyer: while every key-column value fits in a byte and
// there are at most eight key columns, keys are injective byte-packings
// and matches need no verification; the first out-of-range value migrates
// every stored key to FNV-1a, after which probes verify candidate rows
// against the arena. Probing in packed mode with an out-of-range probe
// value short-circuits to "no match" — the build side is known to contain
// byte-range values only.
type StreamTable struct {
	arity  int
	keyPos []int // key columns in inserted rows

	data []Value // flat arena; row i = data[i*arity:(i+1)*arity]
	n    int
	keys []uint64 // per-row key under the current mode

	packed bool
	built  bool
	jt     joinTable
}

// NewStreamTable returns an empty table for rows of the given arity keyed
// by the columns keyPos (which it copies).
func NewStreamTable(arity int, keyPos []int) *StreamTable {
	return &StreamTable{
		arity:  arity,
		keyPos: append([]int(nil), keyPos...),
		packed: len(keyPos) <= 8,
	}
}

// Len returns the number of inserted rows.
func (st *StreamTable) Len() int { return st.n }

// Bytes approximates the table's resident memory: the tuple arena, the
// per-row keys, and the probe structure once built. It is the pull
// pipeline's accounting unit for the memory budget.
func (st *StreamTable) Bytes() int64 {
	b := int64(cap(st.data))*4 + int64(cap(st.keys))*8
	if st.built {
		b += st.jt.bytes()
	}
	return b
}

// emptyRow is the canonical zero-arity row. Row must not derive it by
// slicing the arena: with no columns the arena stays nil, and a nil row
// would read as "no match" to StreamMatches.Next.
var emptyRow = make(Tuple, 0)

// Row returns stored row i. The caller must not modify it.
func (st *StreamTable) Row(i int) Tuple {
	if st.arity == 0 {
		return emptyRow
	}
	return st.data[i*st.arity : (i+1)*st.arity]
}

// packCols packs the key columns of t, reporting failure on an
// out-of-range value.
func packCols(t Tuple, pos []int) (uint64, bool) {
	var key uint64
	for _, p := range pos {
		v := t[p]
		if v < 0 || v > 255 {
			return 0, false
		}
		key = key<<8 | uint64(byte(v))
	}
	return key, true
}

// hashCols FNV-hashes the key columns of t.
func hashCols(t Tuple, pos []int) uint64 {
	var h uint64 = fnvOffset
	for _, p := range pos {
		v := uint32(t[p])
		for s := 0; s < 32; s += 8 {
			h ^= uint64(byte(v >> s))
			h *= fnvPrime
		}
	}
	return h
}

// Insert copies the row into the arena. It panics if called after the
// first Probe: the build phase of a hash join completes before probing.
func (st *StreamTable) Insert(t Tuple) {
	if st.built {
		panic("relation.StreamTable: Insert after Probe")
	}
	if len(t) != st.arity {
		panic("relation.StreamTable: row arity mismatch")
	}
	st.data = append(st.data, t...)
	var k uint64
	if st.packed {
		var ok bool
		if k, ok = packCols(t, st.keyPos); !ok {
			st.migrate()
			k = hashCols(t, st.keyPos)
		}
	} else {
		k = hashCols(t, st.keyPos)
	}
	st.keys = append(st.keys, k)
	st.n++
}

// migrate leaves packed mode, rehashing every stored key.
func (st *StreamTable) migrate() {
	st.packed = false
	for i := range st.keys {
		st.keys[i] = hashCols(st.Row(i), st.keyPos)
	}
}

// build freezes the table: no more inserts, probing allowed.
func (st *StreamTable) build() {
	st.jt = newJoinTable(st.keys)
	st.built = true
}

// StreamMatches iterates the build rows matching one probe tuple.
type StreamMatches struct {
	st     *StreamTable
	e      int32
	verify bool
	probe  Tuple
	pPos   []int
}

// Probe returns an iterator over the stored rows whose key columns equal
// probePos of pt. The first Probe freezes the table.
func (st *StreamTable) Probe(pt Tuple, probePos []int) StreamMatches {
	if !st.built {
		st.build()
	}
	if st.n == 0 {
		return StreamMatches{}
	}
	var k uint64
	if st.packed {
		var ok bool
		if k, ok = packCols(pt, probePos); !ok {
			// All build values are byte-range; an out-of-range probe
			// value cannot match any of them.
			return StreamMatches{}
		}
		return StreamMatches{st: st, e: st.jt.first(k)}
	}
	k = hashCols(pt, probePos)
	return StreamMatches{st: st, e: st.jt.first(k), verify: true, probe: pt, pPos: probePos}
}

// Next returns the next matching build row, or nil when exhausted. The
// returned slice points into the arena; the caller must not modify it.
func (m *StreamMatches) Next() Tuple {
	for m.e != 0 {
		row := m.st.Row(int(m.st.jt.rowOf[m.e-1]))
		m.e = m.st.jt.next[m.e-1]
		if m.verify {
			match := true
			for i, p := range m.st.keyPos {
				if row[p] != m.probe[m.pPos[i]] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
		}
		return row
	}
	return nil
}
