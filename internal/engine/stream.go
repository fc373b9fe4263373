package engine

// The pull pipeline: the engine's one set of Volcano-style operators —
// scan, hash join, SELECT DISTINCT — the execution model of the paper's
// PostgreSQL backend. Tuples flow one at a time, so nothing but a hash
// build, a DISTINCT state and the final output is ever materialized. It
// lowers the same plans as the plan walker (NewWalker), with the structural
// differences that bound *live* intermediate size — the quantity the
// paper shows governs cost — rather than cumulative materialization:
//
//   - Projection is fused into scans and probes. Every operator is lowered
//     against the set of columns its ancestors actually need, so scans
//     emit column subsets through relation.ColumnReader (deduplicating
//     lazily only when columns were dropped) and hash-join builds store
//     only the needed columns of their input.
//
//   - Materialization happens only at genuine pipeline breakers — hash
//     builds, DISTINCT states, and the final output — and each breaker
//     *releases* its bytes back to the governor when the operator closes.
//     The memory budget (Options.MaxBytes) therefore bounds peak live
//     bytes, not cumulative allocation, and Stats.Bytes reports the
//     high-water mark of live bytes.
//
// One phase is optional and runs ahead of lowering: semijoin pushdown
// (pushdown.go). The entry point says whether it may run — NewPipeline
// yes, ExecIterator no — and where it
// may, the scans say whether it does: mayReduce skips it when the stored
// columns prove that no sweep can remove a tuple. Without it a run does no
// work per plan node beyond building the operator: on non-selective
// inputs (3-COLOR's complete edge relation) semijoins remove nothing and
// the sweeps are pure overhead, on selective ones they shrink every build
// side before it allocates.
//
// Per-operator row/byte/peak counters feed EXPLAIN ANALYZE's operator
// tree, which is rendered off the operators themselves: lowering does
// nothing only EXPLAIN reads.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"

	"projpush/internal/cq"
	"projpush/internal/plan"
	"projpush/internal/relation"
)

// opStats is one operator's slice of the EXPLAIN ANALYZE tree: rows
// emitted, bytes materialized (cumulative) and resident (current / peak),
// and tuples removed by pushed-down semijoin reduction.
type opStats struct {
	rows    int64  // tuples emitted
	total   int64  // cumulative bytes materialized by this operator
	held    int64  // bytes currently resident
	peak    int64  // high-water resident bytes
	build   int64  // build-side rows stored (joins)
	reduced int64  // tuples removed before this operator by pushdown
	via     string // a build that copied nothing: " resident" or " adopted"
}

// streamContext is the pipeline's run governor with the budget turned from
// cumulative to live bytes: bytes released by a closing operator come back
// to the budget immediately, maxBytes bounds live and peak records its
// high-water mark.
type streamContext struct {
	governor
	live int64 // resident bytes across all live operators
	peak int64 // high-water mark of live
}

// hold re-charges one operator's resident state at its current size (now
// bytes, previously *last), folding the delta into the live-byte budget
// and the peak watermark.
func (c *streamContext) hold(now int64, last *int64, op *opStats) error {
	delta := now - *last
	if delta == 0 {
		return nil
	}
	*last = now
	c.live += delta
	if op != nil {
		op.held += delta
		if delta > 0 {
			op.total += delta
		}
	}
	if c.maxBytes > 0 && c.live > c.maxBytes {
		// The rejected charge stays out of the peak watermarks, so peak
		// tracks what was ever successfully resident.
		return fmt.Errorf("%w: charge of %d bytes puts %d live over budget %d",
			relation.ErrMemBudget, delta, c.live, c.maxBytes)
	}
	if op != nil && op.held > op.peak {
		op.peak = op.held
	}
	if c.live > c.peak {
		c.peak = c.live
	}
	return nil
}

// release returns an operator's entire resident charge to the budget.
func (c *streamContext) release(last *int64, op *opStats) {
	if *last == 0 {
		return
	}
	c.live -= *last
	if op != nil {
		op.held -= *last
	}
	*last = 0
}

// kernelLim adapts the live budget for a relation kernel call: the
// kernel's transient allocations (probe tables, copy-outs) charge on top
// of the current live bytes, so a budget violation mid-kernel surfaces as
// ErrMemBudget, and notePeak folds the transient high-water into the
// run's peak after the call.
func (c *streamContext) kernelLim(counter *atomic.Int64) *relation.Limit {
	counter.Store(c.live)
	lim := c.lim(&c.stats.Work)
	if lim.MaxBytes <= 0 {
		lim.MaxBytes = math.MaxInt64 // track transients even without a budget
	}
	lim.Bytes = counter
	return lim
}

func (c *streamContext) notePeak(counter *atomic.Int64) {
	if v := counter.Load(); v > c.peak {
		c.peak = v
	}
}

// streamOp is one operator of the pipelined graph. Tuples returned by
// next are only valid until the following call; close is idempotent and
// releases the operator's resident bytes back to the governor.
type streamOp interface {
	schema() []cq.Var
	next() (relation.Tuple, error)
	close()
	stats() *opStats
}

// streamScan streams the needed columns of a base relation — its view
// reduced by the pushdown phase, or the stored relation itself —
// deduplicating lazily: a seen-set is kept only when columns were
// actually dropped, since only then can duplicates arise.
type streamScan struct {
	ctx        *streamContext
	atom       *cq.Atom
	state      *streamScanState   // the pushdown phase's view; nil with the phase off
	view       *relation.Relation // what rd reads: stored, or the phase's view
	sch        []cq.Var
	rd         relation.ColumnReader
	dedup      *relation.Relation
	dedupBytes int64
	st         opStats
	done       bool
}

func (s *streamScan) schema() []cq.Var { return s.sch }
func (s *streamScan) stats() *opStats  { return &s.st }

func (s *streamScan) next() (relation.Tuple, error) {
	if s.done {
		return nil, nil
	}
	for {
		t := s.rd.Next()
		if t == nil {
			s.close()
			return nil, nil
		}
		if s.dedup != nil {
			// Only here can the loop spin without returning a tuple; a
			// returned tuple is ticked by whoever consumes it.
			if err := s.ctx.tick(); err != nil {
				return nil, err
			}
			if !s.dedup.Add(t) {
				continue
			}
			s.ctx.stats.Tuples++
			s.ctx.stats.MaterializedTuples++
			if err := s.ctx.hold(s.dedup.Bytes(), &s.dedupBytes, &s.st); err != nil {
				return nil, err
			}
			if s.ctx.maxRows > 0 && s.dedup.Len() > s.ctx.maxRows {
				return nil, relation.ErrRowLimit
			}
		}
		s.st.rows++
		return t, nil
	}
}

func (s *streamScan) close() {
	if s.done {
		return
	}
	s.done = true
	s.ctx.release(&s.dedupBytes, &s.st)
	s.dedup = nil
	if s.state != nil {
		s.ctx.release(&s.state.charged, &s.st)
	}
}

// streamJoin builds a hash table over the needed columns of its right
// input — pre-filtered by any attached buildFilters — then streams the
// left input through it. The table is released when the left input is
// exhausted; the right subtree is closed as soon as the build completes.
type streamJoin struct {
	ctx         *streamContext
	left, right streamOp
	sch         []cq.Var

	probeKey  []int // key columns in the left (probe) schema
	keyPos    []int // key columns in the stored build row
	gather    []int // the stored row's columns in the right schema
	rightOnly []int // stored-row columns the output appends to the left's

	filters  []buildFilter
	table    *relation.StreamTable
	tabBytes int64

	built, done, closed bool
	haveCur             bool // cur holds a probe tuple with matches left

	// out is the output tuple: the current probe tuple (cur, its prefix)
	// followed by the right-only columns of the matching build row.
	out, cur relation.Tuple
	matches  relation.StreamMatches
	buf      relation.Tuple // gathered build row buffer
	st       opStats
}

func (j *streamJoin) schema() []cq.Var { return j.sch }
func (j *streamJoin) stats() *opStats  { return &j.st }

// build makes the table and holds its full size. A keyed, unfiltered
// build over a whole-row scan or a DISTINCT, which emit exactly the stored
// columns, copies nothing: it probes a stored arena's column index
// (resident) or takes the input's arena and its charge (adopted).
func (j *streamJoin) build() (err error) {
	var rel *relation.Relation
	resident := false
	if len(j.filters) == 0 && len(j.keyPos) > 0 {
		switch in := j.right.(type) {
		case *streamScan:
			if in.dedup == nil {
				rel, resident = in.view, in.state == nil || in.state.epoch == 0
				in.st.rows = int64(rel.Len())
			}
		case *streamDistinct:
			if rel, err = in.drain(); err != nil {
				return err
			}
		}
	}
	switch {
	case rel == nil:
		err = j.buildCopy()
	case j.ctx.maxRows > 0 && rel.Len() > j.ctx.maxRows:
		err = relation.ErrRowLimit
	case resident:
		j.table, j.st.via = relation.NewStreamTableResident(rel, j.keyPos), " resident"
	default:
		j.table, j.st.via = relation.NewStreamTableOver(rel, j.keyPos), " adopted"
	}
	if err != nil {
		return err
	}
	j.right.close() // drained: its bytes go back before the table's are held
	if err := j.ctx.hold(j.table.Bytes(), &j.tabBytes, &j.st); err != nil {
		return err
	}
	j.st.build = int64(j.table.Len())
	j.ctx.stats.MaxRows = max(j.ctx.stats.MaxRows, j.table.Len())
	j.built = true
	return nil
}

// buildCopy inserts the right input's needed columns row by row, through
// any build filters, and freezes the table.
func (j *streamJoin) buildCopy() error {
	j.table = relation.NewStreamTable(len(j.gather), j.keyPos)
	for fi := range j.filters {
		bf := &j.filters[fi]
		var counter atomic.Int64
		f, err := relation.NewStreamFilter(bf.state.view, bf.attrs, j.ctx.kernelLim(&counter))
		j.ctx.notePeak(&counter)
		if err != nil {
			return err
		}
		bf.f = f
		if err := j.ctx.hold(f.Bytes(), &bf.bytes, &j.st); err != nil {
			return err
		}
	}
	n := 0
insert:
	for {
		t, err := j.right.next()
		if err != nil {
			return err
		}
		if t == nil {
			break
		}
		if err := j.ctx.tick(); err != nil {
			return err
		}
		for i, g := range j.gather {
			j.buf[i] = t[g]
		}
		for fi := range j.filters {
			if !j.filters[fi].f.Match(j.buf, j.filters[fi].pos) {
				j.st.reduced++
				j.ctx.stats.ReducedTuples++
				continue insert
			}
		}
		n++
		if j.ctx.maxRows > 0 && n > j.ctx.maxRows {
			return relation.ErrRowLimit
		}
		j.table.Insert(j.buf)
		j.ctx.stats.Tuples++
		j.ctx.stats.MaterializedTuples++
		if err := j.ctx.hold(j.table.Bytes(), &j.tabBytes, &j.st); err != nil {
			return err
		}
	}
	// The build side is fully materialized; release the filters and
	// freeze the table, whose probe structure build charges.
	for fi := range j.filters {
		j.ctx.release(&j.filters[fi].bytes, &j.st)
		j.filters[fi].f = nil
	}
	j.filters = nil
	j.table.Freeze()
	return nil
}

func (j *streamJoin) next() (relation.Tuple, error) {
	if j.done {
		return nil, nil
	}
	if !j.built {
		if err := j.build(); err != nil {
			return nil, err
		}
	}
	for {
		if j.haveCur {
			if rt := j.matches.Next(); rt != nil {
				for k, c := range j.rightOnly {
					j.out[len(j.cur)+k] = rt[c]
				}
				j.st.rows++
				return j.out, nil
			}
			j.haveCur = false
		}
		t, err := j.left.next()
		if err != nil {
			return nil, err
		}
		if t == nil {
			// Probe input exhausted: the resident table goes back to the
			// governor now.
			j.ctx.release(&j.tabBytes, &j.st)
			j.table = nil
			j.left.close()
			j.done = true
			return nil, nil
		}
		if err := j.ctx.tick(); err != nil {
			return nil, err
		}
		copy(j.cur, t)
		j.haveCur = true
		j.matches = j.table.Probe(j.cur, j.probeKey)
	}
}

func (j *streamJoin) close() {
	if j.closed {
		return
	}
	j.closed = true
	j.done = true
	for fi := range j.filters {
		j.ctx.release(&j.filters[fi].bytes, &j.st)
	}
	j.filters = nil
	j.ctx.release(&j.tabBytes, &j.st)
	j.table = nil
	j.left.close()
	j.right.close()
}

// streamDistinct projects its input onto cols and deduplicates — the
// SELECT DISTINCT pipeline breaker. Its seen-set is never copied: at the
// plan root it is the final result, and under a join it is the build.
type streamDistinct struct {
	ctx       *streamContext
	in        streamOp
	sch       []cq.Var
	idx       []int
	seen      *relation.Relation
	seenBytes int64
	out       relation.Tuple
	st        opStats
	done      bool
}

func (d *streamDistinct) schema() []cq.Var { return d.sch }
func (d *streamDistinct) stats() *opStats  { return &d.st }

func (d *streamDistinct) next() (relation.Tuple, error) {
	if d.done {
		return nil, nil
	}
	for {
		t, err := d.in.next()
		if err != nil {
			return nil, err
		}
		if t == nil {
			d.done = true
			d.in.close()
			return nil, nil
		}
		if err := d.ctx.tick(); err != nil {
			return nil, err
		}
		for i, j := range d.idx {
			d.out[i] = t[j]
		}
		if !d.seen.Add(d.out) {
			continue
		}
		if err := d.ctx.hold(d.seen.Bytes(), &d.seenBytes, &d.st); err != nil {
			return nil, err
		}
		if d.ctx.maxRows > 0 && d.seen.Len() > d.ctx.maxRows {
			return nil, relation.ErrRowLimit
		}
		if d.seen.Len() > d.ctx.stats.MaxRows {
			d.ctx.stats.MaxRows = d.seen.Len()
		}
		d.ctx.stats.Tuples++
		d.ctx.stats.MaterializedTuples++
		d.st.rows++
		return d.out, nil
	}
}

// drain runs d to its end and returns its seen-set (close releases its charge).
func (d *streamDistinct) drain() (*relation.Relation, error) {
	for {
		t, err := d.next()
		if t == nil || err != nil {
			return d.seen, err
		}
	}
}

func (d *streamDistinct) close() {
	d.ctx.release(&d.seenBytes, &d.st)
	d.seen = nil
	if !d.done {
		d.done = true
		d.in.close()
	}
}

// pipeline lowers one plan onto the operators and runs it.
type pipeline struct {
	ctx *streamContext
	// push is the pushdown phase's result — the reduced scan views and
	// the alive-attribute maps the build filters are read off — or nil
	// when the run goes without the phase.
	push *pushdown
	// root is the lowered operator tree, kept for EXPLAIN.
	root streamOp
	// joinAttrs memoizes the output schema of a join that feeds a join:
	// plan.Join.Attrs re-derives its whole subtree on every call, which
	// down a left-deep chain is quadratic.
	joinAttrs map[*plan.Join][]cq.Var
}

// attrs is n's output schema.
func (e *pipeline) attrs(n plan.Node) []cq.Var {
	j, ok := n.(*plan.Join)
	if !ok {
		return n.Attrs()
	}
	if a, ok := e.joinAttrs[j]; ok {
		return a
	}
	l, r := e.attrs(j.Left), e.attrs(j.Right)
	out := make([]cq.Var, len(l), len(l)+len(r))
	copy(out, l)
	for _, a := range r {
		if !slices.Contains(l, a) {
			out = append(out, a)
		}
	}
	if e.joinAttrs == nil {
		e.joinAttrs = make(map[*plan.Join][]cq.Var)
	}
	e.joinAttrs[j] = out
	return out
}

// pick returns the attributes of from that occur in a or in b, in from's
// order: a join input emits what the join's consumer needs of it plus
// what it shares with the other input. Schemas are a handful of columns,
// so membership is a scan, not a set.
func pick(from, a, b []cq.Var) []cq.Var {
	out := make([]cq.Var, 0, len(from))
	for _, v := range from {
		if slices.Contains(a, v) || slices.Contains(b, v) {
			out = append(out, v)
		}
	}
	return out
}

// positions locates each of cols in schema.
func positions(schema, cols []cq.Var) ([]int, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		if idx[i] = slices.Index(schema, c); idx[i] < 0 {
			return nil, fmt.Errorf("engine: projection column x%d not in input schema", c)
		}
	}
	return idx, nil
}

// lower builds the operator graph for n, emitting only the needed
// columns. needed is always a subset of n's schema; the returned
// operator's schema is a superset of needed (joins keep their own key
// columns in the streamed output — they cost nothing until the next
// breaker, which gathers its own needed subset).
func (e *pipeline) lower(n plan.Node, needed []cq.Var) (streamOp, error) {
	switch t := n.(type) {
	case *plan.Scan:
		s := &streamScan{ctx: e.ctx, atom: &t.Atom, sch: t.Atom.Args}
		var view *relation.Relation
		if e.push != nil {
			s.state = e.push.scans[e.push.scanOf[t]]
			view = s.state.view
			s.st = opStats{reduced: s.state.reduced, held: s.state.charged,
				total: s.state.charged, peak: s.state.charged}
		} else {
			// Nothing rewrites the rows, so they are read by position off
			// the stored relation: no bound view is needed.
			var err error
			if view, err = e.ctx.resolve(&t.Atom); err != nil {
				return nil, err
			}
		}
		var idx []int // nil: whole rows, in the atom's order
		if len(needed) < len(t.Atom.Args) {
			var err error
			if idx, err = positions(t.Atom.Args, needed); err != nil {
				return nil, err
			}
			s.sch, s.dedup = needed, relation.New(needed)
		}
		s.view, s.rd = view, relation.NewColumnReader(view, idx)
		e.noteArity(len(s.sch))
		return s, nil

	case *plan.Join:
		la, ra := e.attrs(t.Left), e.attrs(t.Right)
		left, err := e.lower(t.Left, pick(la, needed, ra))
		if err != nil {
			return nil, err
		}
		// Stored build rows are the needed columns of the right input.
		stored := pick(ra, needed, la)
		right, err := e.lower(t.Right, stored)
		if err != nil {
			return nil, err
		}
		ls, rs := left.schema(), right.schema()
		j := &streamJoin{ctx: e.ctx, left: left, right: right}
		// The four column lists hold at most one entry per stored column
		// each: one backing array serves them all.
		k := len(stored)
		cols := make([]int, 4*k)
		j.gather, j.keyPos, j.probeKey, j.rightOnly = cols[:k], cols[k:k:2*k], cols[2*k:2*k:3*k], cols[3*k:3*k]
		j.sch = make([]cq.Var, len(ls), len(ls)+k)
		copy(j.sch, ls)
		for i, a := range stored {
			j.gather[i] = slices.Index(rs, a)
			if p := slices.Index(ls, a); p >= 0 {
				j.probeKey = append(j.probeKey, p)
				j.keyPos = append(j.keyPos, i)
			} else {
				j.rightOnly = append(j.rightOnly, i)
				j.sch = append(j.sch, a)
			}
		}
		vals := make(relation.Tuple, len(j.sch)+k)
		j.out, j.buf = vals[:len(j.sch):len(j.sch)], vals[len(j.sch):]
		j.cur = j.out[:len(ls)]
		if e.push != nil {
			j.filters = e.push.buildFilters(t, stored)
		}
		e.ctx.stats.Joins++
		e.noteArity(len(j.sch))
		return j, nil

	case *plan.Project:
		for i, c := range t.Cols {
			if slices.Contains(t.Cols[:i], c) {
				return nil, fmt.Errorf("engine: projection repeats column x%d", c)
			}
		}
		// Consecutive projections collapse: π_N(π_C(X)) = π_N(X) under
		// set semantics, so only one DISTINCT state is kept.
		child := t.Child
		for {
			if p, ok := child.(*plan.Project); ok {
				child = p.Child
				continue
			}
			break
		}
		in, err := e.lower(child, needed)
		if err != nil {
			return nil, err
		}
		idx, err := positions(in.schema(), needed)
		if err != nil {
			return nil, err
		}
		d := &streamDistinct{
			ctx:  e.ctx,
			in:   in,
			sch:  needed,
			idx:  idx,
			seen: relation.New(needed),
			out:  make(relation.Tuple, len(needed)),
		}
		e.ctx.stats.Projections++
		e.noteArity(len(needed))
		return d, nil

	default:
		return nil, fmt.Errorf("engine: unknown plan node %T", n)
	}
}

func (e *pipeline) noteArity(a int) {
	if a > e.ctx.stats.MaxArity {
		e.ctx.stats.MaxArity = a
	}
}

// NewPipeline returns the pull pipeline for p, with the semijoin pushdown
// phase ahead of it wherever a sweep could remove a tuple: base relations
// are reduced before any operator runs, projections are fused, and memory
// is accounted in live bytes (Stats.Bytes and Stats.PeakBytes report the
// peak of live bytes, not cumulative materialization). Where the scans'
// columns prove every semijoin the identity (mayReduce: the paper's
// 3-COLOR workloads) the phase is skipped and the run, its Stats included,
// is ExecIterator's. Results are identical to the walker's. The pipeline
// and the pushdown sweeps poll the context and surface cancellation as
// ErrCanceled. Explain renders the fused operator tree (explainPipeline).
func NewPipeline(p plan.Node) Fallback {
	return Fallback{
		Run: func(ctx context.Context, db cq.Database, opt Options) (*Result, error) {
			res, _, err := execPipeline(ctx, p, db, opt, true)
			return res, err
		},
		Explain: func(db cq.Database, opt Options, analyze bool) (string, error) {
			return explainPipeline(p, db, opt, analyze)
		},
	}
}

// ExecStreamContext runs p on the pull pipeline (NewPipeline) under ctx.
func ExecStreamContext(ctx context.Context, p plan.Node, db cq.Database, opt Options) (*Result, error) {
	return NewPipeline(p).Run(ctx, db, opt)
}

// ExecIterator evaluates the plan on the pull pipeline alone, without the
// pushdown phase: the plain Volcano execution of the plan. Results are
// identical to the walker's; Stats.Bytes and Stats.PeakBytes report the
// peak of live bytes.
func ExecIterator(p plan.Node, db cq.Database, opt Options) (*Result, error) {
	res, _, err := execPipeline(context.Background(), p, db, opt, false)
	return res, err
}

// execPipeline runs p on the pull pipeline and returns the pipeline that
// ran alongside the result, for EXPLAIN ANALYZE. With sweeps set the
// semijoin pushdown phase runs ahead of lowering, unless no sweep could
// remove a tuple (mayReduce): then the run is the bare pipeline's.
func execPipeline(cctx context.Context, p plan.Node, db cq.Database, opt Options, sweeps bool) (*Result, *pipeline, error) {
	ctx := &streamContext{}
	ctx.govern(cctx, db, opt)
	e, stats := &pipeline{ctx: ctx}, &ctx.stats
	// done settles the run's totals: the live-byte peak is what the
	// pipeline reports as Bytes.
	done := func(out *relation.Relation, err error) (*Result, *pipeline, error) {
		stats.Bytes, stats.PeakBytes = ctx.peak, ctx.peak
		res, err := ctx.finish(out, err)
		return res, e, err
	}
	// tick polls every few thousand tuples; a run shorter than that still
	// refuses a context that was dead on arrival.
	err := ctx.interrupted()
	if err != nil {
		return done(nil, err)
	}
	if sweeps && ctx.mayReduce(p) {
		if e.push, err = runPushdown(ctx, p); err != nil {
			return done(nil, err)
		}
	}
	if e.root, err = e.lower(p, e.attrs(p)); err != nil {
		return done(nil, err)
	}
	root := e.root
	defer root.close()
	var out *relation.Relation
	if d, ok := root.(*streamDistinct); ok {
		if out, err = d.drain(); err != nil {
			return done(nil, err)
		}
	} else {
		out = relation.New(root.schema())
		st, outBytes := root.stats(), int64(0)
		for {
			t, err := root.next()
			if err != nil {
				return done(nil, err)
			}
			if t == nil {
				break
			}
			if err := ctx.tick(); err != nil {
				return done(nil, err)
			}
			out.Add(t)
			if err := ctx.hold(out.Bytes(), &outBytes, st); err != nil {
				return done(nil, err)
			}
			if opt.MaxRows > 0 && out.Len() > opt.MaxRows {
				return done(nil, fmt.Errorf("%w: final result", relation.ErrRowLimit))
			}
		}
	}
	root.close()
	if out.Arity() > stats.MaxArity {
		stats.MaxArity = out.Arity()
	}
	if out.Len() > stats.MaxRows {
		stats.MaxRows = out.Len()
	}
	return done(out, nil)
}

// explainPipeline renders the streaming engine's fused operator tree under
// a header that says whether the pushdown phase runs on this plan and
// database or is skipped (mayReduce). When analyze is true the plan
// executes under opt and every operator line carries its rows/bytes/peak
// counters — bytes is the operator's cumulative materialization, peak its
// resident high-water mark — plus reduced= where pushed-down semijoins
// removed tuples and build= on hash builds; the trailer reports the run's
// peak live bytes and reduced-vs-materialized totals.
func explainPipeline(p plan.Node, db cq.Database, opt Options, analyze bool) (string, error) {
	var e *pipeline
	var st Stats
	var swept bool // the pushdown phase ran, or would
	if analyze {
		res, ran, err := execPipeline(context.Background(), p, db, opt, true)
		if err != nil {
			return "", err
		}
		e, st, swept = ran, res.Stats, ran.push != nil
	} else {
		// The phase changes what the operators read, not which operators
		// there are: the structural rendering lowers without it.
		e = &pipeline{ctx: &streamContext{}}
		e.ctx.govern(context.Background(), db, opt)
		var err error
		if e.root, err = e.lower(p, e.attrs(p)); err != nil {
			return "", err
		}
		e.root.close()
		swept = e.ctx.mayReduce(p)
	}
	var b strings.Builder
	if swept {
		b.WriteString("stream pipeline\n")
	} else {
		b.WriteString("stream pipeline (pushdown skipped: no scan can reduce another)\n")
	}
	var walk func(op streamOp, depth int)
	walk = func(op streamOp, depth int) {
		var label string
		var inputs []streamOp
		switch o := op.(type) {
		case *streamScan:
			label = o.atom.String()
			if len(o.sch) < len(o.atom.Args) {
				label += " π" + varList(o.sch)
			}
		case *streamJoin:
			label, inputs = "⋈", []streamOp{o.left, o.right}
		case *streamDistinct:
			label, inputs = "π"+varList(o.sch), []streamOp{o.in}
		}
		fmt.Fprintf(&b, "%s%s  arity=%d", strings.Repeat("  ", depth+1), label, len(op.schema()))
		if analyze {
			o := op.stats()
			fmt.Fprintf(&b, " rows=%d bytes=%d peak=%d", o.rows, o.total, o.peak)
			if o.build > 0 {
				fmt.Fprintf(&b, " build=%d%s", o.build, o.via)
			}
			if o.reduced > 0 {
				fmt.Fprintf(&b, " reduced=%d", o.reduced)
			}
		}
		b.WriteString("\n")
		for _, c := range inputs {
			walk(c, depth+1)
		}
	}
	walk(e.root, 0)
	if analyze {
		fmt.Fprintf(&b, "memory: %d bytes peak live", st.PeakBytes)
		if opt.MaxBytes > 0 {
			fmt.Fprintf(&b, " (budget %d)", opt.MaxBytes)
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "tuples: materialized=%d reduced=%d\n",
			st.MaterializedTuples, st.ReducedTuples)
	}
	return b.String(), nil
}
