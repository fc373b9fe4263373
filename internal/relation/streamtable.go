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
// Keys follow the key rule (key.go): while every inserted row's key
// columns pack, keys are exact and matches need no verification; the first
// row that does not pack migrates every stored key to FNV-1a, after which
// probes verify candidate rows against the arena. A probe that does not
// pack against a packed table short-circuits to "no match".
type StreamTable struct {
	arity  int
	keyPos []int // key columns in inserted rows
	keyed  int   // how many of them the probe structure hashes: 1 if resident

	data []Value // flat arena; row i = data[i*arity:(i+1)*arity]
	n    int
	keys []uint64 // per-row key under the current mode; nil once frozen

	packed   bool
	built    bool
	resident bool // jt is a stored arena's column index on keyPos[0]
	jt       joinTable
}

// NewStreamTable returns an empty table for rows of the given arity keyed
// by the columns keyPos (which it copies).
func NewStreamTable(arity int, keyPos []int) *StreamTable {
	return &StreamTable{arity: arity, keyPos: append([]int(nil), keyPos...), keyed: len(keyPos), packed: true}
}

// NewStreamTableResident returns a frozen table over r's rows that probes
// their arena's column index (facts.go) on keyPos[0], verifying the rest
// of the key; like the index, it is charged to no request (Bytes is 0).
func NewStreamTableResident(r *Relation, keyPos []int) *StreamTable {
	return &StreamTable{arity: r.arity, keyPos: keyPos, keyed: 1, data: r.data, n: r.n,
		packed: true, built: true, resident: true, jt: *r.columnIndex(keyPos[0])}
}

// NewStreamTableOver returns a frozen table over r's arena, adopted in
// place: r must not change after. Bytes is the arena and probe structure.
func NewStreamTableOver(r *Relation, keyPos []int) *StreamTable {
	st := &StreamTable{arity: r.arity, keyPos: keyPos, keyed: len(keyPos), data: r.data, n: r.n,
		packed: r.packs(keyPos), keys: make([]uint64, r.n)}
	for i := range st.keys {
		st.keys[i], _ = rowKey(r.row(i), keyPos, st.packed)
	}
	st.Freeze()
	return st
}

// Len returns the number of stored rows.
func (st *StreamTable) Len() int { return st.n }

// Bytes approximates the table's resident memory: the tuple arena, the
// per-row keys until the table is frozen, and the probe structure after.
// It is the pull pipeline's accounting unit for the memory budget.
func (st *StreamTable) Bytes() int64 {
	if st.resident {
		return 0
	}
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

// Insert copies the row into the arena. It panics if called after Freeze:
// the build phase of a hash join completes before probing.
func (st *StreamTable) Insert(t Tuple) {
	if st.built {
		panic("relation.StreamTable: Insert after Freeze")
	}
	if len(t) != st.arity {
		panic("relation.StreamTable: row arity mismatch")
	}
	st.data = append(st.data, t...)
	k, ok := rowKey(t, st.keyPos, st.packed)
	if !ok {
		st.migrate()
		k = hashKey(t, st.keyPos)
	}
	st.keys = append(st.keys, k)
	st.n++
}

// migrate leaves packed mode, rehashing every stored key.
func (st *StreamTable) migrate() {
	st.packed = false
	for i := range st.keys {
		st.keys[i] = hashKey(st.Row(i), st.keyPos)
	}
}

// Freeze ends the build, as the first Probe does: it keys the probe
// structure over the rows and frees the per-row keys, which probes skip.
func (st *StreamTable) Freeze() {
	if !st.built {
		st.jt, st.keys, st.built = newJoinTable(st.keys), nil, true
	}
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
	st.Freeze()
	k, ok := rowKey(pt, probePos[:st.keyed], st.packed)
	if st.n == 0 || !ok {
		return StreamMatches{}
	}
	return StreamMatches{st: st, e: st.jt.first(k), verify: !st.packed || st.resident, probe: pt, pPos: probePos}
}

// Next returns the next matching build row, or nil when exhausted. The
// returned slice points into the arena; the caller must not modify it.
func (m *StreamMatches) Next() Tuple {
	for m.e != 0 {
		row := m.st.Row(int(m.st.jt.rowOf[m.e-1]))
		m.e = m.st.jt.next[m.e-1]
		if m.verify && !sameKey(row, m.st.keyPos, m.probe, m.pPos) {
			continue
		}
		return row
	}
	return nil
}
