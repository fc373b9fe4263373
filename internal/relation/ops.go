package relation

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"projpush/internal/faultinject"
)

// Limit bounds the work an operation may perform. The zero value imposes no
// limits. Limits exist because unoptimized plans in this paper's setting
// legitimately produce intermediate results that are exponential in the
// query size; the experiment harness must be able to abort such runs and
// report a timeout, as the paper does for the straightforward method on
// augmented circular ladders.
type Limit struct {
	// MaxRows caps the number of rows in any produced relation. 0 means
	// unlimited.
	MaxRows int
	// Deadline aborts the operation when passed. The zero time means no
	// deadline. The deadline is checked every few thousand rows.
	Deadline time.Time
	// Work, if non-nil, is incremented by the number of tuples touched.
	Work *int64
	// Ctx, when non-nil, cancels the operation: kernels poll Ctx.Err()
	// at the same cadence as the deadline check, so cancellation lands
	// within a few thousand rows. A canceled operation fails with an
	// error wrapping both ErrCanceled and the context's error.
	Ctx context.Context
	// MaxBytes caps the cumulative bytes of relation storage (tuple
	// arenas plus dedup and join tables) materialized under this limit.
	// 0 means unlimited. The byte budget is checked on every arena or
	// table growth, so joins on pathological plans abort on allocation
	// pressure before the row cap would fire.
	MaxBytes int64
	// Bytes, when non-nil, is the shared cumulative byte counter: one
	// execution threads a single counter through every operator, making
	// MaxBytes a per-run budget rather than a per-operator one.
	Bytes *atomic.Int64
}

// ErrRowLimit is returned when an operation would exceed Limit.MaxRows.
var ErrRowLimit = errors.New("relation: intermediate result exceeds row limit")

// ErrDeadline is returned when an operation runs past Limit.Deadline.
var ErrDeadline = errors.New("relation: deadline exceeded")

// ErrCanceled is returned when Limit.Ctx is canceled mid-operation.
var ErrCanceled = errors.New("relation: operation canceled")

// ErrMemBudget is returned when an operation would exceed Limit.MaxBytes.
var ErrMemBudget = errors.New("relation: intermediate results exceed memory budget")

const deadlineCheckInterval = 4096

// CheckInterval is the tuples-touched cadence at which kernels poll for
// cancellation and deadline expiry. Engine-side loops that drive the
// arena directly (the worst-case-optimal join) reuse it so every
// executor responds to interrupts within the same bounded work.
const CheckInterval = deadlineCheckInterval

// Interrupted reports why an operation driving this limit must stop
// early — context cancellation or deadline expiry — or nil to continue.
// It is the exported face of the kernels' poll, for engine loops that
// iterate the arena without going through a kernel.
func (l *Limit) Interrupted() error { return l.interrupted() }

// Charge adds n touched tuples to the work counter.
func (l *Limit) Charge(n int64) { l.charge(n) }

// ChargeMemGrowth charges the growth of out's resident footprint since
// *last against the byte budget; callers keep one last-seen value per
// output relation, so most rows cost a subtraction and a compare.
func (l *Limit) ChargeMemGrowth(out *Relation, last *int64) error {
	return l.chargeMem(out, last)
}

// OverRows reports whether a result of n rows exceeds MaxRows.
func (l *Limit) OverRows(n int) bool { return l.overRows(n) }

func (l *Limit) charge(n int64) {
	if l != nil && l.Work != nil {
		*l.Work += n
	}
}

// interrupted reports why the operation must stop early: context
// cancellation or deadline expiry. It returns nil to continue.
func (l *Limit) interrupted() error {
	if l == nil {
		return nil
	}
	if l.Ctx != nil {
		if err := l.Ctx.Err(); err != nil {
			return fmt.Errorf("%w: %w", ErrCanceled, err)
		}
	}
	if !l.Deadline.IsZero() && time.Now().After(l.Deadline) {
		return ErrDeadline
	}
	return nil
}

func (l *Limit) overRows(n int) bool {
	return l != nil && l.MaxRows > 0 && n > l.MaxRows
}

// chargeBytes folds delta bytes into the budget counter and reports
// whether the budget is exhausted.
func (l *Limit) chargeBytes(delta int64) error {
	if l == nil || l.MaxBytes <= 0 || delta <= 0 {
		return nil
	}
	total := delta
	if l.Bytes != nil {
		total = l.Bytes.Add(delta)
	}
	if total > l.MaxBytes {
		return fmt.Errorf("%w: charge of %d bytes puts %d in use over budget %d",
			ErrMemBudget, delta, total, l.MaxBytes)
	}
	return nil
}

// chargeMem charges the growth of out's resident footprint since *last.
// Callers keep one last-seen value per output relation; growth is zero on
// most rows (arenas double), so the common case is three multiplications
// and a compare.
func (l *Limit) chargeMem(out *Relation, last *int64) error {
	if l == nil || l.MaxBytes <= 0 {
		return nil
	}
	b := out.Bytes()
	delta := b - *last
	if delta == 0 {
		return nil
	}
	*last = b
	return l.chargeBytes(delta)
}

// SharedAttrs returns the attributes common to r and o, in r's column order.
func SharedAttrs(r, o *Relation) []Attr {
	var shared []Attr
	for _, a := range r.attrs {
		if o.HasAttr(a) {
			shared = append(shared, a)
		}
	}
	return shared
}

// joinSpec precomputes everything a hash join between r and o needs:
// build/probe role assignment, the key regime, key column positions, and
// the output assembly map.
type joinSpec struct {
	build, probe *Relation
	resident     bool // probe the build side's column index (facts.go)
	runs         bool // or read its sorted index led by the key column
	outAttrs     []Attr
	arity        int   // the join's; outAttrs may project it
	whole        bool  // outAttrs is the whole join: rows are distinct, appended with no dedup table
	exact        bool  // the build side's keys pack (key.go): no verification
	bPos, pPos   []int // shared-attr column positions on each side
	probeSrc     []int // output column -> probe column, or -1
	buildSrc     []int // output column -> build column (when probeSrc is -1)
}

// makeJoinSpec prepares the join of r and o onto keep, or, when keep is
// nil, onto r's attributes followed by o's attributes not in r. On a
// one-column key a zero-copy view of a stored arena (isShared) is the
// build side, whatever the sizes (the larger when both are views), and its
// arena's sorted index on the key column, then the others in schema order,
// is read, or its column index when the key's range is wider than its
// rows. Otherwise the smaller input is built.
func makeJoinSpec(r, o *Relation, keep []Attr) joinSpec {
	shared := SharedAttrs(r, o)
	rView, oView := r.isShared(), o.isShared()
	s := joinSpec{build: r, probe: o, resident: len(shared) == 1 && (rView || oView)}
	swap := o.n < r.n
	if s.resident {
		swap = oView && (!rView || o.n > r.n)
	}
	if swap {
		s.build, s.probe = o, r
	}

	s.outAttrs, s.arity = keep, r.arity+o.arity-len(shared)
	if keep == nil { // r's columns, then o-only columns
		s.outAttrs = append([]Attr(nil), r.attrs...)
		for _, a := range o.attrs {
			if !r.HasAttr(a) {
				s.outAttrs = append(s.outAttrs, a)
			}
		}
	}
	s.whole = len(s.outAttrs) == s.arity

	s.bPos = s.build.colsOf(shared)
	s.pPos = s.probe.colsOf(shared)
	s.exact = s.build.packs(s.bPos) // always, on one column
	k, b := s.bPos, s.build
	s.runs = s.resident && int64(b.colMax[k[0]])-int64(b.colMin[k[0]]) < int64(b.n)

	// Output assembly: shared attributes are read from the probe side
	// (the join condition makes the two sides agree on them).
	s.probeSrc = make([]int, len(s.outAttrs))
	s.buildSrc = make([]int, len(s.outAttrs))
	for i, a := range s.outAttrs {
		if j := s.probe.Pos(a); j >= 0 {
			s.probeSrc[i] = j
			s.buildSrc[i] = -1
		} else {
			s.probeSrc[i] = -1
			s.buildSrc[i] = s.build.Pos(a)
		}
	}
	return s
}

// table returns the join table over the build side: its arena's resident
// column index, charged to no request, or a table built and charged now.
func (s *joinSpec) table(lim *Limit) (*joinTable, error) {
	if s.resident {
		return s.build.columnIndex(s.bPos[0]), nil
	}
	keys := make([]uint64, s.build.n)
	for i := range keys {
		keys[i], _ = rowKey(s.build.row(i), s.bPos, s.exact)
	}
	jt := newJoinTable(keys)
	lim.charge(int64(s.build.n))
	return &jt, lim.chargeBytes(jt.bytes())
}

// Join computes the natural join of r and o. It is equivalent to
// JoinLimited with no limits; it never fails.
func Join(r, o *Relation) *Relation {
	out, err := JoinLimited(r, o, nil)
	if err != nil {
		panic("relation.Join: unreachable error without limits: " + err.Error())
	}
	return out
}

// JoinLimited computes the natural join of r and o under lim. The output
// schema is r's attributes followed by o's attributes not in r. When the
// relations share no attributes the result is the cross product.
//
// The implementation is a classic hash join, which mirrors the paper's
// setup (it forced hash joins in PostgreSQL): probe a table keyed by the
// shared attributes with the other side's rows. When the key is one
// column and a side is a view of a stored arena, that arena's sorted index
// (joinRuns) or, for a sparse key, its column index is the table, built
// once and shared, and nothing is built or charged; otherwise an
// open-addressing table is built on the smaller input and charged.
//
// The natural join of two sets is a set (an output row determines both
// input rows), so rows are written straight into the output's arena with
// no membership test, and the output's dedup table is built only if Add
// or Contains asks. A join over a sorted index allocates its arena at its
// exact size; any other grows it as stage grows one. Each output column's
// range is that of the input column it copies, a superset of the rows' own.
func JoinLimited(r, o *Relation, lim *Limit) (*Relation, error) {
	out, _, err := JoinProjectLimited(r, o, nil, lim)
	return out, err
}

// JoinProjectLimited computes π_keep(r ⋈ o) — SELECT DISTINCT keep FROM
// r ⋈ o — in one pass under lim, and reports the join's row count. keep
// names attributes of r or o; a nil keep is JoinLimited. Each match's kept
// columns go straight into the output's dedup table, so the join is never
// written, but a keep of the whole join, distinct as it is, appends them.
// The limits are JoinLimited's: MaxRows caps the join's rows, interrupts
// are polled per tuple touched, the fault points fire at entry and every
// allocation is charged. Over a sorted index the output is sized once,
// before the first insert (joinSpec.size); otherwise it grows as
// ProjectLimited's does.
func JoinProjectLimited(r, o *Relation, keep []Attr, lim *Limit) (*Relation, int, error) {
	if err := lim.interrupted(); err != nil {
		return nil, 0, err
	}
	faultinject.Sleep(faultinject.LatencyKernel)
	if faultinject.FailAlloc(faultinject.AllocJoin) {
		return nil, 0, fmt.Errorf("%w: injected allocation failure", ErrMemBudget)
	}
	faultinject.Panic(faultinject.PanicJoin)
	spec := makeJoinSpec(r, o, keep)
	out := New(spec.outAttrs)
	for i := range out.attrs { // the sources' ranges: a whole join keeps them, and they fix the dedup keys' regime
		src, j := spec.probe, spec.probeSrc[i]
		if j < 0 {
			src, j = spec.build, spec.buildSrc[i]
		}
		out.colMin[i], out.colMax[i] = src.colMin[j], src.colMax[j]
	}
	out.exact = out.packs(out.cols)
	if r.n == 0 || o.n == 0 {
		return out, 0, nil
	}
	if spec.runs {
		return spec.joinRuns(out, lim)
	}
	jt, err := spec.table(lim)
	if err != nil {
		return nil, 0, err
	}

	// The interrupt check ticks on tuples touched, not probe rows: a
	// high-fanout join can emit millions of rows from a handful of probe
	// rows, and cancellation must land within a bounded amount of work.
	probe, build, w := spec.probe, spec.build, out.arity
	var data []Value // out's arena, held in a local: out.data only while insert runs
	var touched, charged int64
	defer func() { lim.charge(touched) }()
	n, nextCheck := 0, int64(deadlineCheckInterval)
	for pi := 0; pi < probe.n; pi++ {
		pt := probe.row(pi)
		touched++
		key, ok := rowKey(pt, spec.pPos, spec.exact)
		if !ok {
			continue
		}
		for e := jt.first(key); e != 0; e = jt.next[e-1] {
			bt := build.row(int(jt.rowOf[e-1]))
			touched++
			if touched >= nextCheck {
				nextCheck = touched + deadlineCheckInterval
				if err := lim.interrupted(); err != nil {
					return nil, 0, err
				}
			}
			if !spec.exact && !sameKey(bt, spec.bPos, pt, spec.pPos) {
				continue
			}
			if len(data)+w > cap(data) {
				if data, err = spec.grow(out, data, lim, &charged); err != nil {
					return nil, 0, err
				}
			}
			row := data[len(data) : len(data)+w : len(data)+w]
			for i, ps := range spec.probeSrc {
				if ps >= 0 {
					row[i] = pt[ps]
				} else {
					row[i] = bt[spec.buildSrc[i]]
				}
			}
			if n++; lim.overRows(n) {
				return nil, 0, ErrRowLimit
			}
			if spec.whole {
				data = data[:len(data)+w]
			} else if data, err = spec.insert(out, data, row, lim, &charged); err != nil {
				return nil, 0, err
			}
		}
	}
	return spec.done(out, data, n), n, nil
}

// grow grows data, out's arena, by a row as Relation.stage does, charged.
func (s *joinSpec) grow(out *Relation, data []Value, lim *Limit, charged *int64) ([]Value, error) {
	out.data = growArena(data, len(data)+out.arity, out.arity)
	return out.data, lim.chargeMem(out, charged)
}

// insert keeps the row staged past data, out's arena, unless out holds it,
// and charges what the dedup table grew by.
func (s *joinSpec) insert(out *Relation, data []Value, row Tuple, lim *Limit, charged *int64) ([]Value, error) {
	out.data = data
	out.commitStaged(row)
	return out.data, lim.chargeMem(out, charged)
}

// done gives out its arena: a whole join's n rows, stale (no dedup table),
// or the projection's rows, kept one by one.
func (s *joinSpec) done(out *Relation, data []Value, n int) *Relation {
	if out.data = data; s.whole {
		out.n, out.stale = n, true
	}
	return out
}

// size returns the rows of arena and the dedup slots that out, the output
// of a join of n rows, starts with. A projection holds at most min(n, R)
// rows, R the product of its columns' ranges: sized for them and a row
// staged past them, it never grows. Where they outweigh the join's arena,
// which the two kernels write too, it starts at the largest sizes of
// ProjectLimited's doubling sequences that fit in it, table first: it
// grows to within the two kernels' bytes.
func (s *joinSpec) size(out *Relation, n int) (rows, slots int) {
	if s.whole {
		return n, 0
	}
	rows, w, budget := 1, out.arity, 4*s.arity*n
	for i := 0; i < w && rows < n; i++ {
		rows *= int(out.colMax[i]) - int(out.colMin[i]) + 1
	}
	rows = min(rows, n)
	if slots = max(16, nextPow2(rows*4/3+1)); 4*w*(rows+1)+12*slots <= budget {
		return rows + 1, slots // room to stage a candidate past them too
	}
	for ; slots > 16 && 12*slots > budget; slots /= 2 {
	}
	for rows = 64; 2*rows < n && 8*w*rows+12*slots <= budget; rows *= 2 {
	}
	if 12*slots > budget {
		return 0, 0
	}
	if 4*w*rows+12*slots > budget {
		rows = 0
	}
	return rows, slots
}

// joinRuns is JoinProjectLimited over the build side's sorted index: a
// probe key's matches are the run [lo,hi) of its start offsets, the
// build's other columns read from the index's over it. A first pass sums
// the runs, so the row cap, the byte charge and the output's one sizing
// precede any write. Both passes tick per tuple touched; the work is the
// table join's.
func (s *joinSpec) joinRuns(out *Relation, lim *Limit) (*Relation, int, error) {
	var buf [8]Attr // the key column, then the others in schema order
	b, k := s.build, s.bPos[0]
	order := append(append(append(buf[:0], b.attrs[k]), b.attrs[:k]...), b.attrs[k+1:]...)
	ix, _ := b.SortedIndex(order) // the order is the build's own schema
	probe, key, w, whole := s.probe, s.pPos[0], out.arity, s.whole
	var touched, charged int64
	defer func() { lim.charge(touched) }()
	tick := func() error {
		if touched++; touched%deadlineCheckInterval != 0 {
			return nil
		}
		return lim.interrupted()
	}
	total := 0
	for pi := 0; pi < probe.n; pi++ {
		if err := tick(); err != nil {
			return nil, 0, err
		}
		lo, hi := ix.run(probe.data[pi*probe.arity+key])
		if total += hi - lo; lim.overRows(total) {
			touched += int64(lim.MaxRows) + 1 // as the table join counts to its first row over the cap
			return nil, 0, ErrRowLimit
		}
	}
	rows, slots := s.size(out, total)
	charged = int64(rows*w)*4 + int64(slots)*12
	if err := lim.chargeBytes(charged); err != nil {
		return nil, 0, err
	}
	data, err := make([]Value, 0, rows*w), error(nil)
	if out.data = data; slots > 0 {
		out.keys, out.refs = make([]uint64, slots), make([]int32, slots)
	}
	cols := make([][]Value, w) // output column -> the index's column it copies
	for i, bs := range s.buildSrc {
		if bs >= 0 {
			cols[i] = ix.vals[slices.Index(order, b.attrs[bs])]
		}
	}
	for pi := 0; pi < probe.n; pi++ {
		pt := probe.row(pi)
		for j, hi := ix.run(pt[key]); j < hi; j++ {
			if err := tick(); err != nil {
				return nil, 0, err
			}
			if len(data)+w > cap(data) {
				if data, err = s.grow(out, data, lim, &charged); err != nil {
					return nil, 0, err
				}
			}
			row := data[len(data) : len(data)+w : len(data)+w]
			for i, ps := range s.probeSrc {
				if ps >= 0 {
					row[i] = pt[ps]
				} else {
					row[i] = cols[i][j]
				}
			}
			if whole {
				data = data[:len(data)+w]
			} else if data, err = s.insert(out, data, row, lim, &charged); err != nil {
				return nil, 0, err
			}
		}
	}
	return s.done(out, data, total), total, nil
}

// Project returns the projection of r onto attrs (which must all be in r's
// schema), with duplicates removed — SELECT DISTINCT semantics.
func Project(r *Relation, attrs []Attr) *Relation {
	out, err := ProjectLimited(r, attrs, nil)
	if err != nil {
		panic("relation.Project: unreachable error without limits: " + err.Error())
	}
	return out
}

// ProjectLimited is Project under lim.
func ProjectLimited(r *Relation, attrs []Attr, lim *Limit) (*Relation, error) {
	if err := lim.interrupted(); err != nil {
		return nil, err
	}
	faultinject.Sleep(faultinject.LatencyKernel)
	if faultinject.FailAlloc(faultinject.AllocProject) {
		return nil, fmt.Errorf("%w: injected allocation failure", ErrMemBudget)
	}
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		j := r.Pos(a)
		if j < 0 {
			return nil, fmt.Errorf("relation.Project: attribute %d not in schema", a)
		}
		idx[i] = j
	}
	out := New(attrs)
	lim.charge(int64(r.n))
	var outBytes int64
	for n := 0; n < r.n; n++ {
		if n%deadlineCheckInterval == deadlineCheckInterval-1 {
			if err := lim.interrupted(); err != nil {
				return nil, err
			}
		}
		t := r.row(n)
		row := out.stage()
		for i, j := range idx {
			row[i] = t[j]
		}
		out.commitStaged(row)
		if err := lim.chargeMem(out, &outBytes); err != nil {
			return nil, err
		}
		if lim.overRows(out.n) {
			return nil, ErrRowLimit
		}
	}
	return out, nil
}

// Rename returns a view of r with attributes substituted according to m.
// Attributes not in m are kept. It panics if the renaming collapses two
// attributes into one.
//
// A pure attribute substitution cannot introduce duplicates, so the view
// is zero-copy: it shares the source's row arena, dedup table, range
// metadata and the arena's facts (facts.go: column densities and column
// indexes), computed or not. Both relations turn copy-on-write — the first
// mutation of either side unshares its storage — so neither can observe
// the other's later inserts. Every Scan in both executors goes through
// here, which turns scans from an O(n) re-hash into O(1).
func Rename(r *Relation, m map[Attr]Attr) *Relation {
	attrs := make([]Attr, len(r.attrs))
	for i, a := range r.attrs {
		if b, ok := m[a]; ok {
			attrs[i] = b
		} else {
			attrs[i] = a
		}
	}
	for i, a := range attrs {
		if slices.Contains(attrs[:i], a) {
			panic(fmt.Sprintf("relation.Rename: duplicate attribute %d", a))
		}
	}
	out := &Relation{
		attrs:  attrs,
		arity:  r.arity,
		data:   r.data,
		n:      r.n,
		cols:   r.cols,
		exact:  r.exact,
		keys:   r.keys,
		refs:   r.refs,
		used:   r.used,
		colMin: r.colMin,
		colMax: r.colMax,
		shared: 1,
		stale:  r.stale,
	}
	out.facts.Store(r.factsOf())
	r.markShared()
	return out
}
