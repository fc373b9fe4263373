package relation

// Open-addressing hash structures for the execution hot path. Two
// structures live here:
//
//   - the per-relation dedup table (fields keys/refs on Relation): an
//     open-addressing set over uint64 keys with linear probing and
//     power-of-two capacity. Its key is the whole row under the key rule
//     (key.go): packed and injective while every row packs, otherwise an
//     FNV-1a hash with equality verified against the stored row.
//
//   - joinTable: the hash-join build table. Rows with equal keys are
//     chained through flat []int32 arrays, so building allocates O(1)
//     slices total instead of one slice header per distinct key.
//
// Both use the same finalizing mixer so that packed keys (whose entropy
// sits in the low bits) spread over the whole table.

// mix64 is the splitmix64 finalizer: a bijective mixer that spreads any
// key over all 64 bits. Slot indexes are taken from its low bits.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// nextPow2 returns the smallest power of two >= n (and at least 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// rowEqual reports whether stored row i equals t.
func (r *Relation) rowEqual(i int, t Tuple) bool {
	row := r.data[i*r.arity : (i+1)*r.arity]
	for j, v := range row {
		if v != t[j] {
			return false
		}
	}
	return true
}

// dedupInsert inserts (key, row r.n) unless an equal tuple is already
// present, and reports whether it inserted. In exact mode the key is
// injective so key equality decides; otherwise the candidate is compared
// against the stored row.
func (r *Relation) dedupInsert(key uint64, t Tuple) bool {
	if len(r.keys) == 0 {
		r.keys = make([]uint64, 16)
		r.refs = make([]int32, 16)
	} else if r.used*4 >= len(r.keys)*3 {
		r.growDedup()
	}
	mask := uint64(len(r.keys) - 1)
	i := mix64(key) & mask
	for {
		ref := r.refs[i]
		if ref == 0 {
			r.keys[i] = key
			r.refs[i] = int32(r.n) + 1
			r.used++
			return true
		}
		if r.keys[i] == key && (r.exact || r.rowEqual(int(ref-1), t)) {
			return false
		}
		i = (i + 1) & mask
	}
}

// dedupContains reports whether a tuple with the given key is present.
func (r *Relation) dedupContains(key uint64, t Tuple) bool {
	if len(r.keys) == 0 {
		return false
	}
	mask := uint64(len(r.keys) - 1)
	i := mix64(key) & mask
	for {
		ref := r.refs[i]
		if ref == 0 {
			return false
		}
		if r.keys[i] == key && (r.exact || r.rowEqual(int(ref-1), t)) {
			return true
		}
		i = (i + 1) & mask
	}
}

// growDedup doubles the table and rehashes the stored (key, ref) pairs.
// Rows are not touched: keys are stored alongside the refs.
func (r *Relation) growDedup() {
	oldKeys, oldRefs := r.keys, r.refs
	size := len(oldKeys) * 2
	r.keys = make([]uint64, size)
	r.refs = make([]int32, size)
	mask := uint64(size - 1)
	for j, ref := range oldRefs {
		if ref == 0 {
			continue
		}
		k := oldKeys[j]
		i := mix64(k) & mask
		for r.refs[i] != 0 {
			i = (i + 1) & mask
		}
		r.keys[i] = k
		r.refs[i] = ref
	}
}

// rebuildDedup rebuilds the table from the arena under the current mode.
// The stored rows are distinct, so each insert lands in the first free
// slot of its probe sequence.
func (r *Relation) rebuildDedup() {
	size := nextPow2(r.n*4/3 + 1)
	if size < 16 {
		size = 16
	}
	r.keys = make([]uint64, size)
	r.refs = make([]int32, size)
	r.used = r.n
	mask := uint64(size - 1)
	for i := 0; i < r.n; i++ {
		k, _ := rowKey(r.row(i), r.cols, r.exact)
		j := mix64(k) & mask
		for r.refs[j] != 0 {
			j = (j + 1) & mask
		}
		r.keys[j] = k
		r.refs[j] = int32(i) + 1
	}
}

// ensureDedup builds the dedup table of a relation whose rows were
// assembled without one (a join's output, SemijoinFilter's survivors:
// most are only ever scanned). The stale exact flag
// is not trusted; the column ranges, which cover every row, decide.
func (r *Relation) ensureDedup() {
	if !r.stale {
		return
	}
	r.stale = false
	r.exact = r.packs(r.cols)
	r.rebuildDedup()
}

// migrateHashed leaves packed mode: all dedup keys become FNV hashes with
// row verification on collision.
func (r *Relation) migrateHashed() {
	r.exact = false
	r.rebuildDedup()
}

// joinTable is the hash-join build table: an open-addressing map from a
// join key to the chain of build-side row indexes carrying that key.
// Capacity is fixed at construction (the build side is fully known), so
// there is no growth path; chains live in two flat arrays.
type joinTable struct {
	mask     uint64
	slotKey  []uint64
	slotHead []int32 // 1-based index into rowOf/next; 0 = empty slot
	rowOf    []int32 // entry -> build row index
	next     []int32 // entry -> next entry with the same key (1-based, 0 = end)
}

// newJoinTable builds the table over keys[i] for rows 0..len(keys)-1,
// sized for them at <=75% load.
func newJoinTable(keys []uint64) joinTable {
	n := len(keys)
	size := joinTableSlots(n)
	jt := joinTable{
		mask:     uint64(size - 1),
		slotKey:  make([]uint64, size),
		slotHead: make([]int32, size),
		rowOf:    make([]int32, 0, n),
		next:     make([]int32, 0, n),
	}
	for i, k := range keys {
		jt.insert(k, int32(i))
	}
	return jt
}

// joinTableSlots is the slot count of a table over n rows: at most 75%
// load, and at least 8.
func joinTableSlots(n int) int { return max(8, nextPow2(n*4/3+1)) }

// joinTableBytes approximates the resident memory of a table over n rows:
// slot arrays plus chain arrays. It is the join kernels' accounting unit
// for the memory budget (Limit.MaxBytes), and what the semijoin key set
// (semijoin.go) measures a bitmap against before it builds either.
func joinTableBytes(n int) int64 { return int64(joinTableSlots(n))*12 + int64(n)*8 }

func (jt *joinTable) bytes() int64 { return joinTableBytes(len(jt.rowOf)) }

// insert prepends row to the chain of key.
func (jt *joinTable) insert(key uint64, row int32) {
	i := mix64(key) & jt.mask
	for {
		head := jt.slotHead[i]
		if head == 0 {
			jt.slotKey[i] = key
			jt.rowOf = append(jt.rowOf, row)
			jt.next = append(jt.next, 0)
			jt.slotHead[i] = int32(len(jt.rowOf))
			return
		}
		if jt.slotKey[i] == key {
			jt.rowOf = append(jt.rowOf, row)
			jt.next = append(jt.next, head)
			jt.slotHead[i] = int32(len(jt.rowOf))
			return
		}
		i = (i + 1) & jt.mask
	}
}

// first returns the head of key's chain (1-based entry index), or 0.
// Iterate with: for e := jt.first(k); e != 0; e = jt.next[e-1].
func (jt *joinTable) first(key uint64) int32 {
	i := mix64(key) & jt.mask
	for {
		head := jt.slotHead[i]
		if head == 0 {
			return 0
		}
		if jt.slotKey[i] == key {
			return head
		}
		i = (i + 1) & jt.mask
	}
}
