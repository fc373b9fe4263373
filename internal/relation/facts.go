package relation

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// arenaFacts holds what one stored arena's rows determine and a reader may
// ask for repeatedly: which columns are dense (DenseRange), per column a
// hash index from value to rows (columnIndex), and per column order a
// sorted index (SortedIndex). Each fact is computed at
// most once per arena, by whichever reader asks first, and shared: Rename
// hands the holder to its view, so any number of views and concurrent
// requests over one stored relation settle on one answer and one index. An
// insert or an in-place compaction gives the mutated relation a fresh
// holder and leaves its siblings theirs.
//
// A column's index is resident state of the arena, like its dedup table,
// so no request is charged for it. It is built only for a column that a
// semijoin, or a join on a column wider than its rows, keys on alone with
// this arena's view as a side (SemijoinFilter, JoinLimited), and takes
// joinTableBytes(n) for an n-row arena: 12 bytes a slot at ≤ 75% load
// plus 8 a row, at most 40n + 96 bytes. A caller may also rename a per-request arena — the pipeline's
// pushdown renames a reduced constrainer apart, and a request may ship
// its own database — and an index built there is garbage with that arena,
// after the joinTableBytes(n) that a key set or join table over the same
// rows would have charged. A sorted index is resident the same way: 4n
// bytes a column, at most 8n for run bitmaps and 4n for start offsets.
type arenaFacts struct {
	denseOnce sync.Once
	dense     []bool
	index     []columnIndex // one per column, built on first use

	sortedMu sync.Mutex
	sorted   map[string]func() *SortedIndex // by column order, uvarint-packed; sync.OnceValue each

	resident atomic.Int64 // bytes of the indexes built so far
}

// columnIndex is the join table over one column's packed keys. A
// one-column key always packs (key.go), so a chain holds the rows of
// exactly one value.
type columnIndex struct {
	once  sync.Once
	table joinTable
}

// factsOf returns r's holder, installing one if r has none yet.
func (r *Relation) factsOf() *arenaFacts {
	if f := r.facts.Load(); f != nil {
		return f
	}
	r.facts.CompareAndSwap(nil, &arenaFacts{index: make([]columnIndex, r.arity)})
	return r.facts.Load()
}

// SameArena reports whether r and o share one arena's facts: views of one
// stored relation whose rows no insert or compaction has changed since.
func (r *Relation) SameArena(o *Relation) bool { return r.factsOf() == o.factsOf() }

// columnIndex returns the index of column j, building it on first use.
func (r *Relation) columnIndex(j int) *joinTable {
	f := r.factsOf()
	ix := &f.index[j]
	ix.once.Do(func() {
		keys, pos := make([]uint64, r.n), []int{j}
		for i := range keys {
			keys[i], _ = packKey(r.row(i), pos)
		}
		ix.table = newJoinTable(keys)
		f.resident.Add(ix.table.bytes())
	})
	return &ix.table
}

// SortedIndex returns the index of r's arena ordered by attrs (each of
// which must be in r's schema), building it on first use. It reads the
// arena by column position, so every view of one storage gets the same
// index; readers of one order wait for its single build.
func (r *Relation) SortedIndex(attrs []Attr) (*SortedIndex, error) {
	var buf [8]int // a lookup of a built index allocates nothing
	cols, key := buf[:0], make([]byte, 0, 16)
	for _, a := range attrs {
		c := r.Pos(a)
		if c < 0 {
			return nil, fmt.Errorf("relation.SortedIndex: attribute %d not in schema", a)
		}
		cols, key = append(cols, c), binary.AppendUvarint(key, uint64(c))
	}
	f := r.factsOf()
	f.sortedMu.Lock()
	build := f.sorted[string(key)]
	if build == nil {
		if f.sorted == nil {
			f.sorted = make(map[string]func() *SortedIndex)
		}
		cols := slices.Clone(cols)
		build = sync.OnceValue(func() *SortedIndex {
			ix := newSortedIndex(r, cols)
			f.resident.Add(ix.Bytes())
			return ix
		})
		f.sorted[string(key)] = build
	}
	f.sortedMu.Unlock()
	return build(), nil
}

// ResidentIndexBytes is the bytes of the column and sorted indexes built
// so far over r's arena: resident state no request is charged for.
func (r *Relation) ResidentIndexBytes() int64 { return r.factsOf().resident.Load() }

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
	f := r.factsOf()
	f.denseOnce.Do(func() { f.dense = r.denseCols() })
	return r.colMin[j], r.colMax[j], f.dense[j]
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
