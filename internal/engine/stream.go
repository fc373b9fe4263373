package engine

// The streaming executor: a pipelined operator graph with late
// materialization. It lowers the same plans as Exec and ExecIterator, but
// with three structural differences that bound *live* intermediate size —
// the quantity the paper shows governs cost — rather than cumulative
// materialization:
//
//   - Projection is fused into scans and probes. Every operator is lowered
//     against the set of columns its ancestors actually need, so scans
//     emit column subsets through relation.ColumnReader (deduplicating
//     lazily only when columns were dropped) and hash-join builds store
//     only the needed columns of their input.
//
//   - Semijoin filters are pushed below hash-join builds. A pre-pass walks
//     the plan, derives which scan pairs share an attribute that survives
//     (is never projected away) from each scan to their common ancestor
//     join, and runs relation.SemijoinFilter sweeps over zero-copy bound
//     views of the base relations until a fixpoint — so build sides are
//     pre-reduced before a single bucket is allocated. Interior joins
//     whose build input is itself a stream are additionally pre-filtered
//     with relation.StreamFilter probes against the probe side's reduced
//     base relations.
//
//   - Materialization happens only at genuine pipeline breakers — hash
//     builds, DISTINCT states, and the final output — and each breaker
//     *releases* its bytes back to the governor when the operator closes.
//     The memory budget (Options.MaxBytes) therefore bounds peak live
//     bytes, not cumulative allocation, and Stats.Bytes reports the
//     high-water mark of live bytes.
//
// Per-operator row/byte/peak counters feed ExplainStream's EXPLAIN
// ANALYZE operator tree.
//
// The subplan cache (Options.Cache) memoizes the pushdown pre-pass: the
// engine materializes no subtree join results to share, but the
// semijoin-reduced base scans it does produce are keyed by
// database fingerprint ⊕ whole-plan fingerprint ⊕ scan position (the
// reduced view of one scan depends on every edge of the plan, so the
// whole-plan fingerprint — invariant to variable renaming — is the
// finest sound key). A run that finds every scan of its plan cached
// swaps the reduced views in and skips the sweeps entirely; any miss
// re-runs the fixpoint and stores all scans. Per-scan reduced-tuple
// counts ride along in the entry stats so cache-on and cache-off runs
// report identical ReducedTuples.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"projpush/internal/cq"
	"projpush/internal/plan"
	"projpush/internal/relation"
)

// DefaultStreamWidth is the elimination-width ceiling under which the
// server routes method-less queries to the streaming engine when they are
// too wide for the Yannakakis full reducer (DefaultYannakakisWidth) but
// narrow enough that a pipelined plan with pushdown stays cheap.
const DefaultStreamWidth = 6

// maxReducePasses caps the pushdown fixpoint sweeps. A forward pass
// cascades reductions along the plan order, the backward pass carries
// them the other way (the spider shape needs it: an outer arm first
// reduces its inner relation, which then reduces the other arms through
// the center); further passes only fire when a prior pass still removed
// rows somewhere.
const maxReducePasses = 4

// opStats is one operator's slice of the EXPLAIN ANALYZE tree: rows
// emitted, bytes materialized (cumulative) and resident (current / peak),
// and tuples removed by pushed-down semijoin reduction.
type opStats struct {
	label    string
	attrs    []cq.Var
	rows     int64 // tuples emitted
	total    int64 // cumulative bytes materialized by this operator
	held     int64 // bytes currently resident
	peak     int64 // high-water resident bytes
	build    int64 // build-side rows stored (joins)
	reduced  int64 // tuples removed before this operator by pushdown
	children []*opStats
}

// streamContext is a pipeline's run governor with the budget turned from
// cumulative to live bytes: bytes released by a closing operator come back
// to the budget immediately, maxBytes bounds live and peak records its
// high-water mark. The iterator executor governs its pipeline with the
// same type, spiller unset.
type streamContext struct {
	governor
	live int64 // resident bytes across all live operators
	peak int64 // high-water mark of live
	// spiller, when non-nil, lets pipeline breakers and hash builds
	// spill their resident state to disk instead of failing the hold
	// that pushed live over maxBytes.
	spiller *relation.Spiller
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
		// The rejected charge stays out of the peak watermarks: a caller
		// that spills unwinds it entirely (release + re-hold), so peak
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
}

// streamScanState is one base-relation occurrence tracked by the pushdown
// pre-pass: a zero-copy bound view of the stored relation, reduced in
// place (well, copy-on-first-write) by the semijoin sweeps before any
// operator runs.
type streamScanState struct {
	node    *plan.Scan
	view    *relation.Relation
	charged int64 // live bytes held for the reduced view (0 while shared)
	epoch   int   // bumped whenever rows are removed
	reduced int64 // tuples removed by the sweeps
}

// reduceEdge records that scans a and b may soundly semijoin-reduce each
// other on attrs: each attr survives from both scans to a common ancestor
// join, so a tuple of either scan whose attr values never appear in the
// other cannot contribute to any answer.
type reduceEdge struct {
	a, b           int
	attrs          []cq.Var
	epochA, epochB int // endpoint epochs when the edge last ran
}

type streamExec struct {
	ctx       *streamContext
	scans     []*streamScanState
	scanOf    map[*plan.Scan]int
	edges     []reduceEdge
	edgeOf    map[[2]int]int
	aliveAt   map[plan.Node]map[cq.Var][]int
	nextFresh relation.Attr // fresh attrs for restricted constrainer views
}

// collect walks the plan bottom-up, binding scan views and building the
// alive-attribute map: for each node, which scans does each attribute of
// the node's output survive from? Project drops attributes, Join merges
// its children and — for every attribute alive on both sides — records a
// reduction edge between each pair of source scans.
func (e *streamExec) collect(n plan.Node) (map[cq.Var][]int, error) {
	switch t := n.(type) {
	case *plan.Scan:
		view, err := e.ctx.bind(&t.Atom)
		if err != nil {
			return nil, err
		}
		idx := len(e.scans)
		e.scans = append(e.scans, &streamScanState{node: t, view: view})
		e.scanOf[t] = idx
		alive := make(map[cq.Var][]int, len(t.Atom.Args))
		for _, a := range t.Atom.Args {
			alive[a] = []int{idx}
		}
		e.aliveAt[n] = alive
		return alive, nil

	case *plan.Join:
		l, err := e.collect(t.Left)
		if err != nil {
			return nil, err
		}
		r, err := e.collect(t.Right)
		if err != nil {
			return nil, err
		}
		for a, ls := range l {
			rs, ok := r[a]
			if !ok {
				continue
			}
			for _, i := range ls {
				for _, j := range rs {
					e.addEdge(i, j, a)
				}
			}
		}
		alive := make(map[cq.Var][]int, len(l)+len(r))
		for a, ls := range l {
			alive[a] = append(alive[a], ls...)
		}
		for a, rs := range r {
			alive[a] = append(alive[a], rs...)
		}
		e.aliveAt[n] = alive
		return alive, nil

	case *plan.Project:
		c, err := e.collect(t.Child)
		if err != nil {
			return nil, err
		}
		alive := make(map[cq.Var][]int, len(t.Cols))
		for _, a := range t.Cols {
			if ls, ok := c[a]; ok {
				alive[a] = ls
			}
		}
		e.aliveAt[n] = alive
		return alive, nil

	default:
		return nil, fmt.Errorf("engine: unknown plan node %T", n)
	}
}

func (e *streamExec) addEdge(i, j int, a cq.Var) {
	if i == j {
		return
	}
	if i > j {
		i, j = j, i
	}
	key := [2]int{i, j}
	if k, ok := e.edgeOf[key]; ok {
		for _, have := range e.edges[k].attrs {
			if have == a {
				return
			}
		}
		e.edges[k].attrs = append(e.edges[k].attrs, a)
		return
	}
	e.edgeOf[key] = len(e.edges)
	e.edges = append(e.edges, reduceEdge{a: i, b: j, attrs: []cq.Var{a}, epochA: -1, epochB: -1})
}

// reduceOne reduces target's view by constrainer's on attrs, returning
// whether rows were removed. When the two views share more attributes
// than are sound for this edge, the constrainer's extra columns are
// renamed apart (zero-copy) so the kernel keys only on attrs.
func (e *streamExec) reduceOne(target, constrainer *streamScanState, attrs []cq.Var) (bool, error) {
	if target.view.Empty() {
		return false, nil
	}
	ov := constrainer.view
	shared := relation.SharedAttrs(target.view, ov)
	if len(shared) > len(attrs) {
		ok := make(map[cq.Var]bool, len(attrs))
		for _, a := range attrs {
			ok[a] = true
		}
		m := make(map[relation.Attr]relation.Attr)
		for _, a := range shared {
			if !ok[a] {
				m[a] = e.nextFresh
				e.nextFresh--
			}
		}
		ov = relation.Rename(ov, m)
	}
	var counter atomic.Int64
	out, removed, err := relation.SemijoinFilter(target.view, ov, e.ctx.kernelLim(&counter))
	e.ctx.notePeak(&counter)
	if err != nil {
		return false, err
	}
	if removed == 0 {
		return false, nil
	}
	target.view = out
	target.epoch++
	target.reduced += int64(removed)
	e.ctx.stats.ReducedTuples += int64(removed)
	// After the first removal the view owns a private arena; charge its
	// footprint as live bytes (compactions shrink the charge again).
	return true, e.ctx.hold(out.Bytes(), &target.charged, nil)
}

// reduceAll runs the pushdown sweeps to a fixpoint (bounded by
// maxReducePasses): forward along plan order, then backward, skipping
// edges whose endpoints have not changed since the edge last ran.
func (e *streamExec) reduceAll() error {
	for pass := 0; pass < maxReducePasses; pass++ {
		changed := false
		for k := range e.edges {
			i := k
			if pass%2 == 1 {
				i = len(e.edges) - 1 - k
			}
			ed := &e.edges[i]
			sa, sb := e.scans[ed.a], e.scans[ed.b]
			if ed.epochA == sa.epoch && ed.epochB == sb.epoch {
				continue
			}
			// Reduce the larger view first: the kernel's probe table is
			// built over the constrainer, so constraining big-by-small
			// keeps the sweep's own transient footprint at the small
			// side's size — and the second call then probes an
			// already-shrunk view.
			x, y := sa, sb
			if x.view.Len() < y.view.Len() {
				x, y = y, x
			}
			c1, err := e.reduceOne(x, y, ed.attrs)
			if err != nil {
				return err
			}
			c2, err := e.reduceOne(y, x, ed.attrs)
			if err != nil {
				return err
			}
			ed.epochA, ed.epochB = sa.epoch, sb.epoch
			changed = changed || c1 || c2
		}
		if !changed {
			return nil
		}
	}
	return nil
}

// neededFor intersects a child's output attributes with the columns its
// parent needs plus the join attributes, preserving child order.
func neededFor(child plan.Node, needed []cq.Var, shared []cq.Var) []cq.Var {
	want := make(map[cq.Var]bool, len(needed)+len(shared))
	for _, a := range needed {
		want[a] = true
	}
	for _, a := range shared {
		want[a] = true
	}
	var out []cq.Var
	for _, a := range child.Attrs() {
		if want[a] {
			out = append(out, a)
		}
	}
	return out
}

// streamScan streams the needed columns of a (reduced) base-relation
// view, deduplicating lazily — a seen-set is kept only when columns were
// actually dropped, since only then can duplicates arise.
type streamScan struct {
	ctx        *streamContext
	state      *streamScanState
	sch        []cq.Var
	rd         *relation.ColumnReader
	dedup      *relation.Relation
	dedupBytes int64
	st         *opStats
	done       bool
}

func (s *streamScan) schema() []cq.Var { return s.sch }

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
		if err := s.ctx.tick(); err != nil {
			return nil, err
		}
		if s.dedup != nil {
			if !s.dedup.Add(t) {
				continue
			}
			s.ctx.stats.Tuples++
			s.ctx.stats.MaterializedTuples++
			if err := s.ctx.hold(s.dedup.Bytes(), &s.dedupBytes, s.st); err != nil {
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
	s.ctx.release(&s.dedupBytes, s.st)
	s.dedup = nil
	s.ctx.release(&s.state.charged, s.st)
}

// buildFilter pre-reduces a streamed build side against one of the probe
// side's base relations: rows whose key values never appear in the scan's
// reduced view are dropped before they reach the hash table.
type buildFilter struct {
	state *streamScanState
	attrs []cq.Var
	pos   []int // key columns in the stored (gathered) build row
	f     *relation.StreamFilter
	bytes int64
}

// streamJoin builds a hash table over the needed columns of its right
// input — pre-filtered by any attached buildFilters — then streams the
// left input through it. The table is released when the left input is
// exhausted; the right subtree is closed as soon as the build completes.
type streamJoin struct {
	ctx         *streamContext
	left, right streamOp
	sch         []cq.Var

	sharedLeft []int // probe key columns in left schema
	keyPos     []int // key columns in the stored build row
	gather     []int // rightNeeded columns in right schema
	leftCols   []int // schema assembly: left column index or -1
	rightCols  []int // schema assembly: stored-row column index or -1

	filters  []buildFilter
	table    *relation.StreamTable
	tabBytes int64
	built    bool
	done     bool
	closed   bool

	// Grace spilling (armed only when ctx.spiller is set and the build
	// outgrew the budget): chunks holds build partitions written to
	// disk, spool the probe-side tuples replayed against each reloaded
	// chunk after the in-memory pass, spoolRd the reader of the chunk
	// pass in progress. Equal build rows may recur across chunks, so a
	// spilled join can emit duplicate tuples; every consumer
	// deduplicates (set semantics), so answers are unchanged.
	chunks  []*relation.RowFile
	spool   *relation.RowFile
	spoolRd *relation.RowReader
	replay  bool

	cur     relation.Tuple
	haveCur bool
	matches relation.StreamMatches
	out     relation.Tuple
	buf     relation.Tuple // gathered build row buffer
	st      *opStats
}

func (j *streamJoin) schema() []cq.Var { return j.sch }

func (j *streamJoin) build() error {
	for fi := range j.filters {
		bf := &j.filters[fi]
		var counter atomic.Int64
		f, err := relation.NewStreamFilter(bf.state.view, bf.attrs, j.ctx.kernelLim(&counter))
		j.ctx.notePeak(&counter)
		if err != nil {
			return err
		}
		bf.f = f
		if err := j.ctx.hold(f.Bytes(), &bf.bytes, j.st); err != nil {
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
		if err := j.ctx.hold(j.table.Bytes(), &j.tabBytes, j.st); err != nil {
			if j.ctx.spiller == nil || !errors.Is(err, relation.ErrMemBudget) {
				return err
			}
			if err := j.spillBuild(); err != nil {
				return err
			}
		}
	}
	j.st.build = int64(n)
	if n > j.ctx.stats.MaxRows {
		j.ctx.stats.MaxRows = n
	}
	// The build side is fully materialized; release the filters and the
	// right subtree's state.
	for fi := range j.filters {
		j.ctx.release(&j.filters[fi].bytes, j.st)
		j.filters[fi].f = nil
	}
	j.filters = nil
	j.right.close()
	j.built = true
	return nil
}

// spillBuild writes the whole in-progress hash build to a fresh chunk
// file, releases its bytes to the governor, and restarts the table
// empty — grace-style partitioning driven by memory pressure. The
// chunks are replayed against the spooled probe side once the in-memory
// pass (over the final, resident partition) finishes.
func (j *streamJoin) spillBuild() error {
	rf, err := j.ctx.spiller.NewRowFile(len(j.buf))
	if err != nil {
		return err
	}
	for i := 0; i < j.table.Len(); i++ {
		if err := rf.Append(j.table.Row(i)); err != nil {
			rf.Close()
			return err
		}
	}
	if err := rf.Finish(); err != nil {
		rf.Close()
		return err
	}
	j.chunks = append(j.chunks, rf)
	j.ctx.release(&j.tabBytes, j.st)
	j.table = relation.NewStreamTable(len(j.buf), j.keyPos)
	return j.ctx.hold(j.table.Bytes(), &j.tabBytes, j.st)
}

// replayAdvance drives the chunk-replay phase: reload the next spilled
// build chunk into a fresh table and stream the spooled probe tuples
// through it, one chunk at a time, holding exactly one chunk resident.
// It leaves the next probe tuple in j.cur/j.matches, or sets j.done.
func (j *streamJoin) replayAdvance() error {
	for {
		if j.table == nil {
			if len(j.chunks) == 0 {
				j.done = true
				j.spool.Close()
				j.spool = nil
				return nil
			}
			ch := j.chunks[0]
			j.chunks = j.chunks[1:]
			tab := relation.NewStreamTable(len(j.buf), j.keyPos)
			rd, err := ch.Reader()
			if err != nil {
				ch.Close()
				return err
			}
			for {
				row, err := rd.Next()
				if err != nil {
					rd.Close()
					ch.Close()
					return err
				}
				if row == nil {
					break
				}
				if err := j.ctx.tick(); err != nil {
					rd.Close()
					ch.Close()
					return err
				}
				tab.Insert(row)
				// A reloaded chunk cannot spill again: it was cut at the
				// budget's slack when it was written, so it must fit the
				// slack its siblings leave now. If it does not, the run
				// fails with an honest ErrMemBudget.
				if err := j.ctx.hold(tab.Bytes(), &j.tabBytes, j.st); err != nil {
					rd.Close()
					ch.Close()
					return err
				}
			}
			rd.Close()
			ch.Close()
			j.table = tab
			spoolRd, err := j.spool.Reader()
			if err != nil {
				return err
			}
			j.spoolRd = spoolRd
		}
		row, err := j.spoolRd.Next()
		if err != nil {
			return err
		}
		if row == nil {
			// Probe pass over this chunk done; drop it, move to the next.
			j.spoolRd.Close()
			j.spoolRd = nil
			j.ctx.release(&j.tabBytes, j.st)
			j.table = nil
			continue
		}
		if err := j.ctx.tick(); err != nil {
			return err
		}
		j.cur = append(j.cur[:0], row...)
		j.haveCur = true
		j.matches = j.table.Probe(j.cur, j.sharedLeft)
		return nil
	}
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
				for i := range j.sch {
					if lc := j.leftCols[i]; lc >= 0 {
						j.out[i] = j.cur[lc]
					} else {
						j.out[i] = rt[j.rightCols[i]]
					}
				}
				j.st.rows++
				return j.out, nil
			}
			j.haveCur = false
		}
		if j.replay {
			if err := j.replayAdvance(); err != nil {
				return nil, err
			}
			if j.done {
				return nil, nil
			}
			continue
		}
		t, err := j.left.next()
		if err != nil {
			return nil, err
		}
		if t == nil {
			// Probe input exhausted: the in-memory pass is over, so the
			// resident table goes back to the governor now.
			j.ctx.release(&j.tabBytes, j.st)
			j.table = nil
			j.left.close()
			if len(j.chunks) == 0 {
				j.done = true
				return nil, nil
			}
			if j.spool == nil {
				// No probe tuple ever arrived; the spilled chunks cannot
				// match anything.
				for _, ch := range j.chunks {
					ch.Close()
				}
				j.chunks = nil
				j.done = true
				return nil, nil
			}
			if err := j.spool.Finish(); err != nil {
				return nil, err
			}
			j.replay = true
			continue
		}
		if err := j.ctx.tick(); err != nil {
			return nil, err
		}
		if len(j.chunks) > 0 {
			// Spool the probe side for the chunk-replay passes.
			if j.spool == nil {
				rf, err := j.ctx.spiller.NewRowFile(len(t))
				if err != nil {
					return nil, err
				}
				j.spool = rf
			}
			if err := j.spool.Append(t); err != nil {
				return nil, err
			}
		}
		j.cur = append(j.cur[:0], t...)
		j.haveCur = true
		j.matches = j.table.Probe(j.cur, j.sharedLeft)
	}
}

func (j *streamJoin) close() {
	if j.closed {
		return
	}
	j.closed = true
	j.done = true
	for fi := range j.filters {
		j.ctx.release(&j.filters[fi].bytes, j.st)
	}
	j.filters = nil
	j.ctx.release(&j.tabBytes, j.st)
	j.table = nil
	for _, ch := range j.chunks {
		ch.Close()
	}
	j.chunks = nil
	if j.spoolRd != nil {
		j.spoolRd.Close()
		j.spoolRd = nil
	}
	if j.spool != nil {
		j.spool.Close()
		j.spool = nil
	}
	j.left.close()
	j.right.close()
}

// streamDistinct projects its input onto cols and deduplicates — the
// SELECT DISTINCT pipeline breaker. When it is the plan root, the engine
// takes ownership of the seen-set as the final result instead of
// materializing a second copy.
type streamDistinct struct {
	ctx       *streamContext
	in        streamOp
	sch       []cq.Var
	idx       []int
	seen      *relation.Relation
	seenBytes int64
	out       relation.Tuple
	st        *opStats
	done      bool
	detached  bool

	// chunks holds seen-set partitions spilled under memory pressure.
	// A fresh seen-set forgets what the spilled partitions contain, so
	// an interior distinct may re-emit a tuple it already passed once;
	// downstream breakers re-deduplicate, and when the distinct is the
	// plan root the engine merges chunks and the resident seen-set with
	// full deduplication (mergeSpilled) instead of detaching.
	chunks []*relation.SpillFile
}

func (d *streamDistinct) schema() []cq.Var { return d.sch }

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
		if err := d.ctx.hold(d.seen.Bytes(), &d.seenBytes, d.st); err != nil {
			if d.ctx.spiller == nil || !errors.Is(err, relation.ErrMemBudget) {
				return nil, err
			}
			if err := d.spillSeen(); err != nil {
				return nil, err
			}
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

// spillSeen writes the whole seen-set (which already contains the
// current row) to disk, releases its bytes, and restarts deduplication
// from the current row so the near-term stream still dedups cheaply.
func (d *streamDistinct) spillSeen() error {
	sf, err := d.ctx.spiller.WriteRelation(d.seen)
	if err != nil {
		return err
	}
	d.chunks = append(d.chunks, sf)
	d.ctx.release(&d.seenBytes, d.st)
	d.seen = relation.New(d.sch)
	d.seen.Add(d.out)
	return d.ctx.hold(d.seen.Bytes(), &d.seenBytes, d.st)
}

// detachSeen hands the dedup state to the caller as the final result; its
// bytes stay charged (the result is live until the run returns).
func (d *streamDistinct) detachSeen() *relation.Relation {
	d.detached = true
	return d.seen
}

// mergeSpilled unions the spilled seen-set chunks with the resident one
// into the final result, deduplicating across chunk overlaps. One chunk
// is resident at a time, and the growing result is itself charged — an
// answer that genuinely exceeds the budget still fails honestly, since
// the run must return it materialized.
func (d *streamDistinct) mergeSpilled() (*relation.Relation, error) {
	out := relation.New(d.sch)
	var outBytes int64
	addAll := func(r *relation.Relation) error {
		var ferr error
		r.Each(func(t relation.Tuple) bool {
			if err := d.ctx.tick(); err != nil {
				ferr = err
				return false
			}
			if !out.Add(t) {
				return true
			}
			if err := d.ctx.hold(out.Bytes(), &outBytes, d.st); err != nil {
				ferr = err
				return false
			}
			if d.ctx.maxRows > 0 && out.Len() > d.ctx.maxRows {
				ferr = fmt.Errorf("%w: final result", relation.ErrRowLimit)
				return false
			}
			return true
		})
		return ferr
	}
	if err := addAll(d.seen); err != nil {
		return nil, err
	}
	d.ctx.release(&d.seenBytes, d.st)
	d.seen = nil
	d.detached = true
	for len(d.chunks) > 0 {
		ch := d.chunks[0]
		d.chunks = d.chunks[1:]
		rel, err := ch.Load()
		ch.Close()
		if err != nil {
			return nil, err
		}
		var chBytes int64
		if err := d.ctx.hold(rel.Bytes(), &chBytes, d.st); err != nil {
			return nil, err
		}
		err = addAll(rel)
		d.ctx.release(&chBytes, d.st)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (d *streamDistinct) close() {
	if !d.detached {
		d.ctx.release(&d.seenBytes, d.st)
		d.seen = nil
	}
	for _, ch := range d.chunks {
		ch.Close()
	}
	d.chunks = nil
	if !d.done {
		d.done = true
		d.in.close()
	}
}

// lower builds the operator graph for n, emitting only the needed
// columns. needed is always a subset of n.Attrs(); the returned
// operator's schema is a superset of needed (joins keep their own key
// columns in the streamed output — they cost nothing until the next
// breaker, which gathers its own needed subset).
func (e *streamExec) lower(n plan.Node, needed []cq.Var) (streamOp, *opStats, error) {
	switch t := n.(type) {
	case *plan.Scan:
		state := e.scans[e.scanOf[t]]
		st := &opStats{
			label:   t.Atom.String(),
			attrs:   needed,
			reduced: state.reduced,
			held:    state.charged,
			total:   state.charged,
			peak:    state.charged,
		}
		if len(needed) < len(t.Atom.Args) {
			st.label += " π" + varList(needed)
		}
		s := &streamScan{
			ctx:   e.ctx,
			state: state,
			sch:   needed,
			rd:    relation.NewColumnReader(state.view, needed),
			st:    st,
		}
		if len(needed) < state.view.Arity() {
			s.dedup = relation.New(needed)
		}
		e.noteArity(len(needed))
		return s, st, nil

	case *plan.Join:
		shared := sharedVars(t.Left.Attrs(), t.Right.Attrs())
		leftNeeded := neededFor(t.Left, needed, shared)
		rightNeeded := neededFor(t.Right, needed, shared)
		left, lst, err := e.lower(t.Left, leftNeeded)
		if err != nil {
			return nil, nil, err
		}
		right, rst, err := e.lower(t.Right, rightNeeded)
		if err != nil {
			return nil, nil, err
		}
		j := &streamJoin{ctx: e.ctx, left: left, right: right}
		ls, rs := left.schema(), right.schema()
		rpos := make(map[cq.Var]int, len(rs))
		for i, a := range rs {
			rpos[a] = i
		}
		// Stored build rows are the rightNeeded gather of the right input.
		stored := rightNeeded
		spos := make(map[cq.Var]int, len(stored))
		for i, a := range stored {
			j.gather = append(j.gather, rpos[a])
			spos[a] = i
		}
		lpos := make(map[cq.Var]int, len(ls))
		for i, a := range ls {
			lpos[a] = i
			j.sch = append(j.sch, a)
			j.leftCols = append(j.leftCols, i)
			j.rightCols = append(j.rightCols, -1)
			if si, ok := spos[a]; ok {
				j.sharedLeft = append(j.sharedLeft, i)
				j.keyPos = append(j.keyPos, si)
			}
		}
		for i, a := range stored {
			if _, ok := lpos[a]; !ok {
				j.sch = append(j.sch, a)
				j.leftCols = append(j.leftCols, -1)
				j.rightCols = append(j.rightCols, i)
			}
		}
		j.out = make(relation.Tuple, len(j.sch))
		j.buf = make(relation.Tuple, len(stored))
		j.table = relation.NewStreamTable(len(stored), j.keyPos)
		j.filters = e.buildFilters(t, stored, spos)
		j.st = &opStats{label: "⋈", attrs: j.sch, children: []*opStats{lst, rst}}
		e.ctx.stats.Joins++
		e.noteArity(len(j.sch))
		return j, j.st, nil

	case *plan.Project:
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
		in, cst, err := e.lower(child, needed)
		if err != nil {
			return nil, nil, err
		}
		pos := make(map[cq.Var]int, len(in.schema()))
		for i, a := range in.schema() {
			pos[a] = i
		}
		idx := make([]int, len(needed))
		for i, c := range needed {
			p, ok := pos[c]
			if !ok {
				return nil, nil, fmt.Errorf("engine: projection column x%d not in input schema", c)
			}
			idx[i] = p
		}
		d := &streamDistinct{
			ctx:  e.ctx,
			in:   in,
			sch:  append([]cq.Var(nil), needed...),
			idx:  idx,
			seen: relation.New(needed),
			out:  make(relation.Tuple, len(needed)),
			st:   &opStats{label: "π" + varList(needed), attrs: needed, children: []*opStats{cst}},
		}
		e.ctx.stats.Projections++
		e.noteArity(len(needed))
		return d, d.st, nil

	default:
		return nil, nil, fmt.Errorf("engine: unknown plan node %T", n)
	}
}

// buildFilters attaches StreamFilter specs to a join whose build side is a
// streamed subtree: for every join attribute alive at some probe-side
// scan, build rows are checked against that scan's reduced view. Bare
// (possibly projected) scan build sides are skipped — the pushdown
// pre-pass already reduced those directly.
func (e *streamExec) buildFilters(t *plan.Join, stored []cq.Var, spos map[cq.Var]int) []buildFilter {
	n := t.Right
	for {
		if p, ok := n.(*plan.Project); ok {
			n = p.Child
			continue
		}
		break
	}
	if _, isScan := n.(*plan.Scan); isScan {
		return nil
	}
	alive := e.aliveAt[t.Left]
	byScan := make(map[int][]cq.Var)
	var order []int
	for _, a := range stored {
		ls, ok := alive[a]
		if !ok || len(ls) == 0 {
			continue
		}
		si := ls[0]
		if _, seen := byScan[si]; !seen {
			order = append(order, si)
		}
		byScan[si] = append(byScan[si], a)
	}
	var out []buildFilter
	for _, si := range order {
		attrs := byScan[si]
		pos := make([]int, len(attrs))
		for i, a := range attrs {
			pos[i] = spos[a]
		}
		out = append(out, buildFilter{state: e.scans[si], attrs: attrs, pos: pos})
	}
	return out
}

func (e *streamExec) noteArity(a int) {
	if a > e.ctx.stats.MaxArity {
		e.ctx.stats.MaxArity = a
	}
}

func sharedVars(l, r []cq.Var) []cq.Var {
	in := make(map[cq.Var]bool, len(r))
	for _, a := range r {
		in[a] = true
	}
	var out []cq.Var
	for _, a := range l {
		if in[a] {
			out = append(out, a)
		}
	}
	return out
}

// ExecStream evaluates the plan with the pipelined streaming engine:
// semijoin pushdown before execution, fused projections, and live-byte
// memory accounting (Stats.Bytes and Stats.PeakBytes report the peak of
// live bytes, not cumulative materialization). Results are identical to
// Exec. The subplan cache (opt.Cache) memoizes the semijoin-reduced base
// scans, so repeated plans skip the pushdown sweeps.
func ExecStream(p plan.Node, db cq.Database, opt Options) (*Result, error) {
	return ExecStreamContext(context.Background(), p, db, opt)
}

// ExecStreamContext is ExecStream under a context: the pipeline and the
// pushdown sweeps poll the context and surface cancellation as
// ErrCanceled.
func ExecStreamContext(cctx context.Context, p plan.Node, db cq.Database, opt Options) (*Result, error) {
	res, _, err := execStream(cctx, p, db, opt)
	return res, err
}

func execStream(cctx context.Context, p plan.Node, db cq.Database, opt Options) (*Result, *opStats, error) {
	e := newStreamExec(cctx, db, opt)
	ctx, stats := e.ctx, &e.ctx.stats
	// done settles the run's totals: the live-byte peak is what this engine
	// reports as Bytes.
	done := func(root *opStats, out *relation.Relation, err error) (*Result, *opStats, error) {
		stats.Bytes, stats.PeakBytes = ctx.peak, ctx.peak
		if ctx.spiller != nil {
			stats.SpilledBytes, stats.SpillFiles = ctx.spiller.Stats()
		}
		res, err := ctx.finish(out, err)
		return res, root, err
	}
	fail := func(root *opStats, err error) (*Result, *opStats, error) { return done(root, nil, err) }
	if opt.SpillDir != "" {
		sp, err := relation.NewSpiller(opt.SpillDir, opt.MaxSpillBytes)
		if err != nil {
			return fail(nil, err)
		}
		ctx.spiller = sp
		defer sp.Cleanup()
	}
	if _, err := e.collect(p); err != nil {
		return nil, nil, err // structural, not a run failure
	}
	// Cached pushdown: if every scan's reduced view is memoized for this
	// (database, plan) pair, swap the views in and skip the sweeps.
	var scanKeys []string
	reduced := false
	if opt.Cache != nil {
		scanKeys = streamScanKeys(DatabaseFingerprint(db), p, len(e.scans))
		views := make([]*relation.Relation, len(e.scans))
		counts := make([]int64, len(e.scans))
		hitAll := true
		for i := range e.scans {
			rel, st, hit := opt.Cache.get(scanKeys[i])
			if !hit {
				hitAll = false
				break
			}
			views[i], counts[i] = rel, st.ReducedTuples
		}
		if hitAll {
			for i, s := range e.scans {
				s.view = scanFromCanonical(views[i], s.node.Atom.Args)
				s.reduced = counts[i]
				stats.ReducedTuples += counts[i]
				if counts[i] > 0 {
					// A reduced view owns a private arena; an unreduced one
					// is still a zero-copy binding of the base relation.
					if err := ctx.hold(s.view.Bytes(), &s.charged, nil); err != nil {
						return fail(nil, err)
					}
				}
			}
			stats.CacheHits += int64(len(e.scans))
			reduced = true
		} else {
			stats.CacheMisses += int64(len(e.scans))
		}
	}
	if !reduced {
		if err := e.reduceAll(); err != nil {
			return fail(nil, err)
		}
		if opt.Cache != nil {
			for i, s := range e.scans {
				opt.Cache.put(scanKeys[i], scanToCanonical(s.view, s.node.Atom.Args),
					Stats{ReducedTuples: s.reduced})
			}
		}
	}
	root, rootSt, err := e.lower(p, append([]cq.Var(nil), p.Attrs()...))
	if err != nil {
		return nil, nil, err
	}
	defer root.close()
	var out *relation.Relation
	if d, ok := root.(*streamDistinct); ok {
		for {
			t, err := d.next()
			if err != nil {
				return fail(rootSt, err)
			}
			if t == nil {
				break
			}
		}
		if len(d.chunks) == 0 {
			out = d.detachSeen()
		} else {
			var err error
			out, err = d.mergeSpilled()
			if err != nil {
				return fail(rootSt, err)
			}
		}
	} else {
		out = relation.New(append([]cq.Var(nil), root.schema()...))
		var outBytes int64
		for {
			t, err := root.next()
			if err != nil {
				return fail(rootSt, err)
			}
			if t == nil {
				break
			}
			out.Add(t)
			if err := ctx.hold(out.Bytes(), &outBytes, rootSt); err != nil {
				return fail(rootSt, err)
			}
			if opt.MaxRows > 0 && out.Len() > opt.MaxRows {
				return fail(rootSt, fmt.Errorf("%w: final result", relation.ErrRowLimit))
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
	return done(rootSt, out, nil)
}

// newStreamExec starts a pipeline run's governor and its empty pushdown
// state.
func newStreamExec(ctx context.Context, db cq.Database, opt Options) *streamExec {
	e := &streamExec{
		ctx:       &streamContext{},
		scanOf:    make(map[*plan.Scan]int),
		edgeOf:    make(map[[2]int]int),
		aliveAt:   make(map[plan.Node]map[cq.Var][]int),
		nextFresh: -1,
	}
	e.ctx.govern(ctx, db, opt)
	return e
}

// ExplainStream renders the streaming engine's fused operator tree. When
// analyze is true the plan executes under opt and every operator line
// carries its rows/bytes/peak counters — bytes is the operator's
// cumulative materialization, peak its resident high-water mark — plus
// reduced= where pushed-down semijoins removed tuples and build= on hash
// builds; the trailer reports the run's peak live bytes and
// reduced-vs-materialized totals.
func ExplainStream(p plan.Node, db cq.Database, opt Options, analyze bool) (string, error) {
	var rootSt *opStats
	var st Stats
	if analyze {
		res, r, err := execStream(context.Background(), p, db, opt)
		if err != nil {
			return "", err
		}
		rootSt, st = r, res.Stats
	} else {
		e := newStreamExec(context.Background(), db, opt)
		if _, err := e.collect(p); err != nil {
			return "", err
		}
		root, r, err := e.lower(p, append([]cq.Var(nil), p.Attrs()...))
		if err != nil {
			return "", err
		}
		root.close()
		rootSt = r
	}
	var b strings.Builder
	b.WriteString("stream pipeline\n")
	var walk func(o *opStats, depth int)
	walk = func(o *opStats, depth int) {
		indent := strings.Repeat("  ", depth+1)
		fmt.Fprintf(&b, "%s%s  arity=%d", indent, o.label, len(o.attrs))
		if analyze {
			fmt.Fprintf(&b, " rows=%d bytes=%d peak=%d", o.rows, o.total, o.peak)
			if o.build > 0 {
				fmt.Fprintf(&b, " build=%d", o.build)
			}
			if o.reduced > 0 {
				fmt.Fprintf(&b, " reduced=%d", o.reduced)
			}
		}
		b.WriteString("\n")
		for _, c := range o.children {
			walk(c, depth+1)
		}
	}
	walk(rootSt, 0)
	if analyze {
		fmt.Fprintf(&b, "memory: %d bytes peak live", st.PeakBytes)
		if opt.MaxBytes > 0 {
			fmt.Fprintf(&b, " (budget %d)", opt.MaxBytes)
		}
		b.WriteString("\n")
		if st.SpilledBytes > 0 {
			fmt.Fprintf(&b, "spill: %d bytes across %d files\n",
				st.SpilledBytes, st.SpillFiles)
		}
		fmt.Fprintf(&b, "tuples: materialized=%d reduced=%d\n",
			st.MaterializedTuples, st.ReducedTuples)
		if opt.Cache != nil {
			fmt.Fprintf(&b, "cache: run hits=%d misses=%d; %s\n",
				st.CacheHits, st.CacheMisses, opt.Cache.Counters())
		}
	}
	return b.String(), nil
}
