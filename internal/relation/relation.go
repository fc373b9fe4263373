// Package relation implements in-memory relations with set semantics and
// the relational-algebra operations needed for project-join query
// evaluation: natural join, projection and semijoin. A semijoin or a join
// on one column of a stored relation looks keys up in an index that
// the stored arena builds once and shares with its views (facts.go,
// semijoin.go, ops.go).
//
// A relation has an ordered schema of attributes and a deduplicated set of
// tuples. Attributes are plain ints; in query processing they are the
// variable identifiers of a conjunctive query. Values are small integers
// (colors, truth values), but the implementation accepts the full int32
// range.
//
// The paper's experimental setting ("Projection Pushing Revisited", EDBT
// 2004) forces hash joins in PostgreSQL and works with main-memory
// databases under SELECT DISTINCT semantics; this package is the
// corresponding substrate: every result is a set, and joins are hash
// joins. A join writes its rows straight into its output's arena, without
// a membership test: the natural join of two sets is a set.
package relation

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"
)

// Attr identifies an attribute (column). In query processing attributes are
// the variables of the conjunctive query.
type Attr = int

// Value is the domain element type. The paper's domains are tiny (three
// colors, two truth values) but nothing here depends on that.
type Value = int32

// Tuple is one row of a relation, with values in schema order.
type Tuple []Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Relation is a set of tuples over an ordered attribute schema.
// The zero value is not usable; use New.
//
// Storage layout: all rows live in one flat []Value arena with stride
// equal to the arity — row i is data[i*arity:(i+1)*arity] — so scans walk
// contiguous memory and appending a row never allocates a per-row header.
// Deduplication uses an open-addressing uint64 table (hashtable.go) keyed
// by the whole row under the key rule (key.go): an arity-k row packs
// exactly while each value fits 64/k bits — any int32 up to two columns,
// and always for the paper's domains — and the table migrates
// transparently to FNV hashes with row verification the first time a row
// does not pack. A relation written without membership tests (a join's
// output, SemijoinFilter's survivors) is stale:
// its table is built on the first Add or Contains.
//
// Relations track per-column min/max values on insert, which lets a hash
// kernel decide packed-vs-hashed keys without rescanning rows, and lets
// Rename share storage with its source (copy-on-write). The ranges bound
// the rows and may be wider: a join's output takes each column's range
// from the input column it copies, and a compaction keeps its input's.
type Relation struct {
	attrs []Attr
	arity int

	data []Value // flat arena; row i = data[i*arity:(i+1)*arity]
	n    int     // number of rows

	cols  []int    // 0..arity-1: the dedup key's columns
	exact bool     // dedup keys are packed (key.go), not hashed
	keys  []uint64 // open-addressing dedup table: key per slot
	refs  []int32  // row index + 1 per slot; 0 = empty
	used  int      // occupied slots

	colMin []Value // per-column minimum over all rows (valid when n > 0)
	colMax []Value // per-column maximum

	// shared is 1 when storage is shared with another relation (zero-copy
	// Rename). Accessed atomically: concurrent scans of one base relation
	// all mark it shared, and a server's concurrent requests do exactly
	// that.
	shared uint32
	stale  bool // dedup table not built and exact not current: rows written without membership tests

	hdrs []Tuple // lazy Tuples() headers into data

	// facts is the arena's column densities and column indexes (facts.go):
	// lazily computed, shared with every zero-copy view, dropped when this
	// relation's rows change.
	facts atomic.Pointer[arenaFacts]
}

// New returns an empty relation over the given attributes, in the given
// column order. It panics if an attribute repeats: project-join queries
// rename columns apart before joining, and a repeated column is always a
// construction bug in this codebase.
func New(attrs []Attr) *Relation {
	for i, a := range attrs {
		if slices.Contains(attrs[:i], a) {
			panic(fmt.Sprintf("relation.New: duplicate attribute %d", a))
		}
	}
	k := len(attrs)
	ranges := make([]Value, 2*k)
	return &Relation{
		attrs:  append([]Attr(nil), attrs...),
		arity:  k,
		cols:   identityCols(k),
		exact:  true,
		colMin: ranges[:k:k],
		colMax: ranges[k:],
	}
}

// identity is 0..63: the dedup key's columns of every relation up to that
// arity, shared and never written.
var identity = func() []int {
	cols := make([]int, 64)
	for i := range cols {
		cols[i] = i
	}
	return cols
}()

// identityCols returns 0..k-1, shared up to arity 64. The caller must not
// modify it.
func identityCols(k int) []int {
	if k <= len(identity) {
		return identity[:k:k]
	}
	cols := make([]int, k)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of (distinct) tuples.
func (r *Relation) Len() int { return r.n }

// Empty reports whether the relation has no tuples.
func (r *Relation) Empty() bool { return r.n == 0 }

// Attrs returns the schema in column order. The caller must not modify it.
func (r *Relation) Attrs() []Attr { return r.attrs }

// HasAttr reports whether a is in the schema.
func (r *Relation) HasAttr(a Attr) bool { return slices.Contains(r.attrs, a) }

// Pos returns the column index of attribute a, or -1 if absent. A schema
// is a plan's width at most, so a scan beats a lookup table.
func (r *Relation) Pos(a Attr) int { return slices.Index(r.attrs, a) }

// row returns stored row i as a slice into the arena. The caller must not
// modify it.
func (r *Relation) row(i int) Tuple {
	return r.data[i*r.arity : (i+1)*r.arity]
}

// isShared reports whether storage is shared with another relation.
func (r *Relation) isShared() bool { return atomic.LoadUint32(&r.shared) != 0 }

// markShared flags the relation's storage as shared.
func (r *Relation) markShared() { atomic.StoreUint32(&r.shared, 1) }

// privatize unshares storage after a zero-copy Rename so a mutation on
// this relation cannot corrupt its sibling: the dedup table and range
// metadata are copied, and the arena is capacity-capped so the next
// append reallocates instead of writing into the shared backing array.
func (r *Relation) privatize() {
	r.data = r.data[: r.n*r.arity : r.n*r.arity]
	r.keys = append([]uint64(nil), r.keys...)
	r.refs = append([]int32(nil), r.refs...)
	r.colMin = append([]Value(nil), r.colMin...)
	r.colMax = append([]Value(nil), r.colMax...)
	atomic.StoreUint32(&r.shared, 0)
}

// stage returns a writable scratch row at the end of the arena, growing
// it if needed. The caller fills the row and calls commitStaged; staged
// data is abandoned (overwritten by the next stage) if the row turns out
// to be a duplicate.
func (r *Relation) stage() Tuple {
	if r.isShared() {
		r.privatize()
	}
	need := (r.n + 1) * r.arity
	r.data = growArena(r.data, need, r.arity)
	return r.data[r.n*r.arity : need]
}

// growArena returns data with room for need values: capacity doubles, from
// 64 rows of the given arity. stage and a join probing a table grow this
// way, so its output takes the bytes of the same rows added one by one.
func growArena(data []Value, need, arity int) []Value {
	if need <= cap(data) {
		return data
	}
	nd := make([]Value, len(data), max(2*cap(data), 64*arity, need))
	copy(nd, data)
	return nd
}

// commitStaged deduplicates the staged row t (which must be the slice
// returned by the last stage call) and keeps it when new, reporting
// whether it was inserted.
func (r *Relation) commitStaged(t Tuple) bool {
	if r.stale {
		r.ensureDedup()
	}
	key, ok := rowKey(t, r.cols, r.exact)
	if !ok {
		r.migrateHashed()
		key = hashKey(t, r.cols)
	}
	if !r.dedupInsert(key, t) {
		return false
	}
	r.keep(t)
	return true
}

// keep extends the arena over the staged row t and folds it into the
// column ranges and the row count, dropping the arena's facts.
func (r *Relation) keep(t Tuple) {
	r.data = r.data[:(r.n+1)*r.arity]
	if r.n == 0 {
		copy(r.colMin, t)
		copy(r.colMax, t)
	} else {
		for j, v := range t {
			if v < r.colMin[j] {
				r.colMin[j] = v
			}
			if v > r.colMax[j] {
				r.colMax[j] = v
			}
		}
	}
	r.n++
	if r.facts.Load() != nil { // a plain load: no atomic store per inserted row
		r.facts.Store(nil)
	}
}

// Add inserts the tuple if not already present and reports whether it was
// inserted. The tuple is copied; the caller keeps ownership of t.
func (r *Relation) Add(t Tuple) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("relation.Add: tuple arity %d != schema arity %d", len(t), r.arity))
	}
	row := r.stage()
	copy(row, t)
	return r.commitStaged(row)
}

// Contains reports whether the tuple is present.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != r.arity || r.n == 0 {
		return false
	}
	r.ensureDedup()
	key, ok := rowKey(t, r.cols, r.exact)
	return ok && r.dedupContains(key, t)
}

// Tuples returns the rows in insertion order. The caller must not modify
// the returned slices.
func (r *Relation) Tuples() []Tuple {
	if len(r.hdrs) != r.n {
		hdrs := make([]Tuple, r.n)
		for i := range hdrs {
			hdrs[i] = r.row(i)
		}
		r.hdrs = hdrs
	}
	return r.hdrs
}

// Each calls f for every tuple until f returns false.
func (r *Relation) Each(f func(Tuple) bool) {
	for i := 0; i < r.n; i++ {
		if !f(r.row(i)) {
			return
		}
	}
}

// Value returns the value of attribute a in tuple t (which must belong to
// this relation's schema).
func (r *Relation) Value(t Tuple, a Attr) Value {
	return t[r.Pos(a)]
}

// Bytes approximates the relation's resident memory in bytes: the tuple
// arena plus the dedup table, if built (not for a stale relation, such as
// a join's output). It is the accounting unit of the engine's byte
// budget; approximation (headers and the attribute schema are ignored)
// is fine there because relations are dominated by their arenas.
func (r *Relation) Bytes() int64 {
	return int64(cap(r.data))*4 + int64(len(r.keys))*8 + int64(len(r.refs))*4
}

// Clone returns a deep copy.
func (r *Relation) Clone() *Relation {
	return &Relation{
		attrs:  r.attrs,
		arity:  r.arity,
		data:   append([]Value(nil), r.data...),
		n:      r.n,
		cols:   r.cols,
		exact:  r.exact,
		keys:   append([]uint64(nil), r.keys...),
		refs:   append([]int32(nil), r.refs...),
		used:   r.used,
		colMin: append([]Value(nil), r.colMin...),
		colMax: append([]Value(nil), r.colMax...),
		stale:  r.stale,
	}
}

// Equal reports whether r and o contain the same set of tuples over the
// same set of attributes, regardless of column order.
func (r *Relation) Equal(o *Relation) bool {
	if r.arity != o.arity || r.n != o.n {
		return false
	}
	perm := make([]int, r.arity)
	for i, a := range r.attrs {
		j := o.Pos(a)
		if j < 0 {
			return false
		}
		perm[i] = j
	}
	buf := make(Tuple, r.arity)
	for i := 0; i < o.n; i++ {
		t := o.row(i)
		for j := range perm {
			buf[j] = t[perm[j]]
		}
		if !r.Contains(buf) {
			return false
		}
	}
	return true
}

// colBits returns the bits that hold column j's values offset by the
// column minimum: the field width of the order-preserving sort keys.
func (r *Relation) colBits(j int) uint {
	return uint(bits.Len64(uint64(int64(r.colMax[j]) - int64(r.colMin[j]))))
}

// Arena returns the rows in arena order, arity values per row, as a view
// of the arena itself: no copy. The caller must not write to it, and it
// is valid until the relation's rows next change.
func (r *Relation) Arena() []Value {
	return r.data[: r.n*r.arity : r.n*r.arity]
}

// SortedTuples returns the tuples sorted lexicographically, as headers
// into one freshly sorted copy of the arena. Useful for deterministic
// output in tests and examples; it sorts row ids by comparing arena
// columns, which suits the small relations those print.
func (r *Relation) SortedTuples() []Tuple {
	ids := make([]int32, r.n)
	for i := range ids {
		ids[i] = int32(i)
	}
	slices.SortFunc(ids, func(a, b int32) int {
		return slices.Compare(r.row(int(a)), r.row(int(b)))
	})
	flat := make([]Value, 0, r.n*r.arity)
	out := make([]Tuple, r.n)
	for i, id := range ids {
		flat = append(flat, r.row(int(id))...)
		out[i] = flat[i*r.arity : (i+1)*r.arity : (i+1)*r.arity]
	}
	return out
}

// String renders the relation compactly: attrs then sorted tuples.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString("(")
	for i, a := range r.attrs {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "x%d", a)
	}
	b.WriteString("){")
	for i, t := range r.SortedTuples() {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString("(")
		for j, v := range t {
			if j > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteString(")")
	}
	b.WriteString("}")
	return b.String()
}
