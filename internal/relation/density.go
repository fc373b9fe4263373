package relation

import "sync"

// density records which columns of one stored arena are dense — hold every
// integer of their [colMin, colMax] range, so the column's value set is the
// range itself. It is computed at most once per arena, by whichever reader
// asks first, and shared: Rename hands the holder to its view, so any
// number of views and concurrent requests over one stored relation settle
// on one answer. An insert or an in-place compaction gives the mutated
// relation a fresh holder and leaves its siblings theirs.
type density struct {
	once sync.Once
	cols []bool
}

// densityOf returns r's holder, installing one if r has none yet.
func (r *Relation) densityOf() *density {
	if d := r.dens.Load(); d != nil {
		return d
	}
	r.dens.CompareAndSwap(nil, new(density))
	return r.dens.Load()
}

// DenseRange returns column j's value range and whether the column is
// dense. Two dense columns with equal ranges hold exactly the same values,
// so a semijoin of either on the other removes nothing: the engine's
// pushdown phase skips itself on that fact. No column of an empty relation
// is dense. Refusing a column whose range is wider than the row count is
// O(1); anything else costs one pass over the rows, once per arena.
func (r *Relation) DenseRange(j int) (lo, hi Value, dense bool) {
	if r.n == 0 {
		return 0, 0, false
	}
	d := r.densityOf()
	d.once.Do(func() { d.cols = r.denseCols() })
	return r.colMin[j], r.colMax[j], d.cols[j]
}

// denseCols marks the dense columns in one pass over the rows: a bitset
// per candidate column over its range, full when the column is dense.
// colMin/colMax may be wider than the rows after an in-place compaction;
// such a column reads as not dense, which only ever errs towards work.
func (r *Relation) denseCols() []bool {
	dense := make([]bool, r.arity)
	seen := make([][]uint64, r.arity)
	missing := make([]int64, r.arity)
	candidates := 0
	for j := range dense {
		width := int64(r.colMax[j]) - int64(r.colMin[j]) + 1
		if width > int64(r.n) {
			continue // fewer rows than values in range
		}
		seen[j], missing[j] = make([]uint64, (width+63)/64), width
		candidates++
	}
	if candidates == 0 {
		return dense
	}
	for i := 0; i < r.n; i++ {
		for j, v := range r.row(i) {
			if seen[j] == nil {
				continue
			}
			off := uint64(int64(v) - int64(r.colMin[j]))
			if seen[j][off>>6]&(1<<(off&63)) == 0 {
				seen[j][off>>6] |= 1 << (off & 63)
				missing[j]--
			}
		}
	}
	for j := range dense {
		dense[j] = seen[j] != nil && missing[j] == 0
	}
	return dense
}
