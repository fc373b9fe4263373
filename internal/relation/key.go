package relation

// The key rule. Every hash kernel in this package — the join build table,
// a relation's dedup table, StreamTable, the semijoin key set and a stored
// arena's column index — keys a row by some k of its columns, and packs
// that key exactly when it can: each value takes 64/k bits, so any int32
// packs when k ≤ 2 and, for k ≥ 3, values in [0, 2^(64/k)) do. A packed
// key is injective, so a match needs no verification. A key that does not
// pack is an FNV-1a hash, and matches are verified against the stored row.
//
// A structure is in one regime at a time: mixing would let a packed key
// collide with a hash. Whether a relation's columns pack is read from its
// per-column min/max (packs), in O(k) and without a scan. A probe row that
// does not pack cannot match a packed structure, so it misses without a
// lookup.
//
// The paper's domains have three (3-COLOR) or two (SAT) values, so in the
// experiments every key packs; BenchmarkAblationHashKey measures the
// difference.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// keyWidth returns the bits each value takes in a k-column packed key.
func keyWidth(k int) uint {
	if k <= 2 {
		return 32
	}
	return uint(64 / k)
}

// fits reports whether v packs into a w-bit field: any value when w is
// 32, else v in [0, 2^w).
func fits(v Value, w uint) bool { return uint64(uint32(v))>>w == 0 }

// packKey packs the columns pos of t into an exact key, or reports that a
// value does not fit.
func packKey(t Tuple, pos []int) (uint64, bool) {
	w := keyWidth(len(pos))
	var key uint64
	for _, p := range pos {
		if !fits(t[p], w) {
			return 0, false
		}
		key = key<<w | uint64(uint32(t[p]))
	}
	return key, true
}

// hashKey FNV-1a-hashes the columns pos of t.
func hashKey(t Tuple, pos []int) uint64 {
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

// rowKey keys the columns pos of t in the given regime. It reports false
// only when exact and t does not pack: such a row matches nothing packed.
func rowKey(t Tuple, pos []int, exact bool) (uint64, bool) {
	if exact {
		return packKey(t, pos)
	}
	return hashKey(t, pos), true
}

// sameKey reports whether a's columns apos equal b's columns bpos: the
// verification of a hashed match.
func sameKey(a Tuple, apos []int, b Tuple, bpos []int) bool {
	for i, p := range apos {
		if a[p] != b[bpos[i]] {
			return false
		}
	}
	return true
}

// packs reports whether every stored row's columns pos pack, from the
// per-column ranges.
func (r *Relation) packs(pos []int) bool {
	w := keyWidth(len(pos))
	for _, p := range pos {
		if !fits(r.colMin[p], w) || !fits(r.colMax[p], w) {
			return false
		}
	}
	return true
}

// colsOf returns the column indexes of attrs, which must all be in r.
func (r *Relation) colsOf(attrs []Attr) []int {
	pos := make([]int, len(attrs))
	for i, a := range attrs {
		pos[i] = r.Pos(a)
	}
	return pos
}
