// Worst-case-optimal multiway join execution (ROADMAP item 1).
//
// Every binary-join executor in this codebase — including the
// projection-pushing plans the paper studies — can be polynomially worse
// than the AGM output bound on cyclic queries (Atserias–Grohe–Marx,
// arXiv 1711.03860): a triangle query over m-edge relations has output
// O(m^1.5), but any join tree materializes an Ω(m²) intermediate in the
// worst case. This file implements the generic/leapfrog worst-case-
// optimal alternative: pick one global variable order, index every atom's
// relation sorted by that order (relation.SortedIndex, resident on the
// arena and shared across requests), and extend the output one variable
// at a time by leapfrog-intersecting the participating atoms' candidate
// runs. The total work is bounded by the AGM fractional-cover bound, the
// quantity internal/server/admission.go already computes for admission.
//
// The variable order is treedec-informed and smallest-domain-first: the
// query's MCS order seeded with the target schema (jointree.Structure's
// Order: the paper's Section 5 order, which puts the free variables
// first), computed once per query, with each block stably reordered by an
// upper bound on the variable's domain once per plan (wplan), revalidated
// per run. Free variables occupy the order's prefix, so the first level
// at which every output attribute's support is complete is exactly
// len(Free): below it the executor stops at the first witness per
// assignment (early projection as existence checking) instead of
// enumerating the full expansion.
//
// Like the other executors: every loop polls the shared Limit at the
// relation.CheckInterval cadence (context cancellation, deadline), output
// growth is charged against Options.MaxBytes, panics
// are isolated to ErrInternal, and Stats carries per-run Seeks/Extensions
// counters that EXPLAIN ANALYZE renders per variable level.
package engine

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"projpush/internal/cq"
	"projpush/internal/faultinject"
	"projpush/internal/jointree"
	"projpush/internal/relation"
)

// wplan is the leapfrog join's request-independent part, fixed by the
// structure and the stored relations; runs over the same arenas share it.
type wplan struct {
	q       *cq.Query
	srcs    []int // the first atom over each relation name
	atoms   []planAtom
	vars    []cq.Var      // the global variable order
	freeCut int           // levels [0,freeCut) are free; below it, existence only
	empty   bool          // some bound relation is empty: the answer is empty
	levels  [][]planEntry // per variable, the atoms whose intersection constrains it
	outSrc  []int         // output column -> level index
	slots   int           // bracket slots: Σ (arity+1) over the atoms
	scanned Stats         // what binding the atoms observes
	bitOnce sync.Once
	bitsAt  []bool // per level: it intersects run bitmaps (markBitLevels)
}

// planAtom is one atom of a plan: its relation and bound view (a lead's
// only), its variables in global order (its sorted index's columns), its
// first bracket slot, and its lead: the first atom reading the same index.
type planAtom struct {
	src, rel *relation.Relation
	cols     []relation.Attr
	br, lead int
}

// planEntry is an atom's part in a level: the variable's depth and slot,
// and whether it is the atom's last column, where a run is one row.
type planEntry struct {
	atom, depth, br int
	last            bool
}

// newPlan binds the atoms and fixes the global variable order and the
// per-level intersection structure; it does not build indexes or touch
// tuples, so EXPLAIN without ANALYZE can render the order cheaply.
func newPlan(s *jointree.Structure, db cq.Database) (*wplan, error) {
	q := s.Query
	p := &wplan{q: q, atoms: make([]planAtom, len(q.Atoms)), freeCut: len(q.Free)}
	g := governor{db: db}
	dom := make(map[cq.Var]int) // domain upper bound: min |R| over atoms
	for i := range q.Atoms {
		a := &q.Atoms[i]
		rel, err := g.scan(&p.scanned, a)
		if err != nil {
			return nil, err
		}
		p.atoms[i].src, p.atoms[i].rel = db[a.Rel], rel
		if !slices.ContainsFunc(p.srcs, func(j int) bool { return q.Atoms[j].Rel == a.Rel }) {
			p.srcs = append(p.srcs, i)
		}
		p.empty = p.empty || rel.Empty()
		for _, v := range a.Args {
			if d, ok := dom[v]; !ok || rel.Len() < d {
				dom[v] = rel.Len()
			}
		}
	}

	// The structure's MCS order (free variables first), each block stably
	// reordered smallest-domain-first. Any global order is correct for
	// the generic join; small domains first shrink the branching near the
	// root.
	if p.freeCut > len(s.Order) {
		return nil, fmt.Errorf("engine: wcoj order shorter than the target schema")
	}
	byDomain := func(block []cq.Var) {
		sort.SliceStable(block, func(i, j int) bool { return dom[block[i]] < dom[block[j]] })
	}
	p.vars = slices.Clone(s.Order)
	byDomain(p.vars[:p.freeCut])
	byDomain(p.vars[p.freeCut:])

	levelOf := make(map[cq.Var]int, len(p.vars))
	for d, v := range p.vars {
		levelOf[v] = d
	}
	p.levels = make([][]planEntry, len(p.vars))
	for i := range p.atoms {
		a := &p.atoms[i]
		// The atom's index columns, in global order; its k-th column is
		// its local depth k.
		a.cols = slices.Clone(q.Atoms[i].Args)
		sort.Slice(a.cols, func(i, j int) bool { return levelOf[a.cols[i]] < levelOf[a.cols[j]] })
		a.br, p.slots, a.lead = p.slots, p.slots+len(a.cols)+1, i
		for k, v := range a.cols {
			p.levels[levelOf[v]] = append(p.levels[levelOf[v]], planEntry{i, k, a.br + k, k == len(a.cols)-1})
		}
		for j := range i { // a lead over the same arena and column positions
			if b := &p.atoms[j]; b.lead == j && b.rel.SameArena(a.rel) && slices.EqualFunc(a.cols, b.cols,
				func(x, y relation.Attr) bool { return a.rel.Pos(x) == b.rel.Pos(y) }) {
				a.lead, a.rel = j, nil
				break
			}
		}
	}
	for d, lv := range p.levels {
		if len(lv) == 0 {
			// Unreachable for validated queries (every free variable occurs
			// in an atom), but an unconstrained variable would mean an
			// infinite domain — fail loudly rather than loop.
			return nil, fmt.Errorf("engine: wcoj variable x%d constrained by no atom", p.vars[d])
		}
	}

	p.outSrc = make([]int, len(q.Free))
	for i, v := range q.Free {
		p.outSrc[i] = levelOf[v]
	}
	return p, nil
}

// wexec is one run of the leapfrog join: the governor, the plan, and the
// request's own state in a few flat slices.
type wexec struct {
	governor
	p       *wplan
	limit   *relation.Limit
	steps   int64                   // the seek budget (NewWCOJ); 0 is none
	ix      []*relation.SortedIndex // per atom, the sorted index it reads
	indexes int                     // distinct sorted indexes read; atoms on one arena and order share
	// Per bracket slot a.br+k: [lo,hi) is the index range consistent with
	// atom a's first k bindings, pos and end the cursor and the run its
	// k-th variable's level is at.
	lo, hi, pos, end []int
	// seeks counts SeekGE/SeekGT calls and bitmap words read per level,
	// extensions the values that survived the level's intersection — the
	// leapfrog analogue of probe work and output fanout (EXPLAIN ANALYZE).
	seeks, extensions []int64
	assign            []relation.Value
	out               *relation.Relation
	outBuf            relation.Tuple
	outBytes          int64
}

// execute looks the atoms' sorted indexes up and runs the leapfrog
// enumeration. An index is resident state of its arena, built by the first
// run that asks and charged to none; atoms over one arena in one column
// order — the triangle's e(x,y) and e(y,z) — share it, each with its own
// brackets. Each distinct index passes the kernel's fault points.
func (ex *wexec) execute() error {
	if ex.p.empty {
		return nil
	}
	for i := range ex.p.atoms {
		a := &ex.p.atoms[i]
		if len(a.cols) == 0 {
			// A nonempty arity-0 atom is a satisfied Boolean factor.
			continue
		}
		ix := ex.ix[a.lead]
		if a.lead == i {
			var err error
			if ix, err = a.rel.SortedIndex(a.cols); err != nil {
				return err
			}
			ex.indexes++
			if err := ex.limit.Interrupted(); err != nil {
				return err
			}
			faultinject.Sleep(faultinject.LatencyKernel)
			if faultinject.FailAlloc(faultinject.AllocJoin) {
				return fmt.Errorf("%w: injected allocation failure", relation.ErrMemBudget)
			}
		}
		ex.ix[i] = ix
		ex.lo[a.br], ex.hi[a.br] = 0, ix.Len()
	}
	ex.p.bitOnce.Do(ex.markBitLevels)
	ex.stats.Joins++
	return ex.enumerate(0)
}

// markBitLevels marks the levels of two or more atoms, each at the last
// column of an index with run bitmaps; a plan's first run decides for all.
func (ex *wexec) markBitLevels() {
	p := ex.p
	p.bitsAt = make([]bool, len(p.levels))
	for d, lv := range p.levels {
		p.bitsAt[d] = len(lv) > 1 && !slices.ContainsFunc(lv, func(e planEntry) bool {
			return e.depth != 1 || !ex.ix[e.atom].HasBitmaps()
		})
	}
}

// enumerate extends the assignment at level d. Levels below freeCut bind
// free variables and recurse; at freeCut every output attribute's support
// is complete, so the remaining levels are checked for a single witness
// (exists) and the assignment is emitted — the executor's early
// projection.
func (ex *wexec) enumerate(d int) error {
	if d == ex.p.freeCut {
		found, err := ex.exists(d)
		if err != nil {
			return err
		}
		if found {
			return ex.emit()
		}
		return nil
	}
	_, err := ex.intersect(d, func() (bool, error) {
		return false, ex.enumerate(d + 1)
	})
	return err
}

// exists reports whether the current partial assignment extends to a full
// one, stopping at the first witness.
func (ex *wexec) exists(d int) (bool, error) {
	if d == len(ex.p.vars) {
		return true, nil
	}
	return ex.intersect(d, func() (bool, error) {
		return ex.exists(d + 1)
	})
}

// intersect runs the leapfrog intersection at level d: the participating
// atoms' current brackets each hold a sorted run of candidate values; the
// laggards repeatedly gallop to the maximum until all agree, each agreed
// value narrows every atom's bracket to that value's run and visits the
// next level. visit returns stop=true to end the enumeration early (the
// existence check's first witness); intersect reports whether it was
// stopped.
func (ex *wexec) intersect(d int, visit func() (bool, error)) (bool, error) {
	if ex.p.bitsAt[d] {
		return ex.intersectBits(d, visit)
	}
	ent, lo, hi, pos, end := ex.p.levels[d], ex.lo, ex.hi, ex.pos, ex.end
	for _, e := range ent {
		if lo[e.br] >= hi[e.br] {
			return false, nil
		}
		pos[e.br] = lo[e.br]
	}
	for {
		// The current candidate is the maximum of the atoms' cursor
		// values; any atom below it can never match a smaller value.
		vmax := ex.ix[ent[0].atom].Value(pos[ent[0].br], ent[0].depth)
		allEqual := true
		for _, e := range ent[1:] {
			v := ex.ix[e.atom].Value(pos[e.br], e.depth)
			if v != vmax {
				allEqual = false
				if v > vmax {
					vmax = v
				}
			}
		}
		if !allEqual {
			for _, e := range ent {
				if ix := ex.ix[e.atom]; ix.Value(pos[e.br], e.depth) < vmax {
					pos[e.br] = ix.SeekGE(e.depth, pos[e.br], hi[e.br], vmax)
					ex.seeks[d]++
					if err := ex.tick(); err != nil {
						return false, err
					}
					if pos[e.br] >= hi[e.br] {
						return false, nil
					}
				}
			}
			continue
		}
		// All atoms agree on vmax: narrow each bracket to its run and
		// descend. At an atom's last column the run is one row.
		for _, e := range ent {
			if end[e.br] = pos[e.br] + 1; !e.last {
				end[e.br] = ex.ix[e.atom].SeekGT(e.depth, pos[e.br], hi[e.br], vmax)
				ex.seeks[d]++
				if err := ex.tick(); err != nil {
					return false, err
				}
			}
			lo[e.br+1], hi[e.br+1] = pos[e.br], end[e.br]
		}
		ex.assign[d] = vmax
		ex.extensions[d]++
		if ex.steps > 0 && ex.ticks > ex.steps {
			return false, ErrWorkLimit
		}
		stop, err := visit()
		if err != nil || stop {
			return stop, err
		}
		for _, e := range ent {
			if pos[e.br] = end[e.br]; pos[e.br] >= hi[e.br] {
				return false, nil
			}
		}
	}
}

// intersectBits is intersect at a level markBitLevels marked: it ANDs the
// runs' bitmaps over the words they all span and visits the set bits in
// ascending order, the values and order galloping would find. Each word
// read counts and ticks as one seek.
func (ex *wexec) intersectBits(d int, visit func() (bool, error)) (bool, error) {
	ent, lo, hi := ex.p.levels[d], ex.lo, ex.hi
	wlo, whi := math.MinInt, math.MaxInt
	for _, e := range ent { // a run: never empty, its depth-0 level narrowed to it
		ix := ex.ix[e.atom]
		wlo, whi = max(wlo, int(ix.Value(lo[e.br], 1)>>6)), min(whi, int(ix.Value(hi[e.br]-1, 1)>>6))
	}
	for w := wlo; w <= whi; w++ {
		x := ^uint64(0)
		for _, e := range ent {
			x &= ex.ix[e.atom].BitWord(lo[e.br], w)
		}
		ex.seeks[d]++
		if err := ex.tick(); err != nil {
			return false, err
		}
		for ; x != 0; x &= x - 1 {
			ex.assign[d] = relation.Value(w<<6 | bits.TrailingZeros64(x))
			ex.extensions[d]++
			if ex.steps > 0 && ex.ticks > ex.steps {
				return false, ErrWorkLimit
			}
			if stop, err := visit(); err != nil || stop {
				return stop, err
			}
		}
	}
	return false, nil
}

// emit writes the current free-variable assignment into the output,
// charging growth against the byte budget and the row cap.
func (ex *wexec) emit() error {
	for i, src := range ex.p.outSrc {
		ex.outBuf[i] = ex.assign[src]
	}
	ex.out.Add(ex.outBuf)
	if err := ex.limit.ChargeMemGrowth(ex.out, &ex.outBytes); err != nil {
		return err
	}
	if ex.limit.OverRows(ex.out.Len()) {
		return relation.ErrRowLimit
	}
	return nil
}

// run takes l's plan for the database and executes it, panic-isolated,
// charging the seeks the governor ticked into Work on every exit path.
func (ex *wexec) run(l *leapfrog) (err error) {
	defer relation.RecoverPanic(&err)
	defer func() { ex.limit.Charge(ex.ticks) }()
	p, err := l.plan(ex.db)
	if err != nil {
		return err
	}
	ex.p, ex.stats = p, p.scanned
	n, ints, counts := p.slots, make([]int, 4*p.slots), make([]int64, 2*len(p.vars))
	ex.lo, ex.hi, ex.pos, ex.end = ints[:n], ints[n:2*n], ints[2*n:3*n], ints[3*n:]
	ex.seeks, ex.extensions = counts[:len(p.vars)], counts[len(p.vars):]
	ex.ix, ex.assign = make([]*relation.SortedIndex, len(p.atoms)), make([]relation.Value, len(p.vars))
	ex.out, ex.outBuf = relation.New(p.q.Free), make(relation.Tuple, len(p.q.Free))
	if err := ex.execute(); err != nil {
		return err
	}
	materialized(&ex.stats, ex.out)
	return nil
}

// leapfrog is one analyzed query's leapfrog join: its seek budget and the
// plan its runs last built, which concurrent runs share (runs that find it
// stale at once each build one, and the last is held).
type leapfrog struct {
	s     *jointree.Structure
	steps int64
	held  atomic.Pointer[wplan]
}

// plan returns the held plan if db binds each relation name it read to the
// same relation over the same arena (an insert, an in-place compaction or
// a rel block changes it), and otherwise builds and holds a new one.
func (l *leapfrog) plan(db cq.Database) (*wplan, error) {
	if p := l.held.Load(); p != nil && !slices.ContainsFunc(p.srcs, func(i int) bool {
		a := &p.atoms[i]
		return db[p.q.Atoms[i].Rel] != a.src || !a.src.SameArena(p.atoms[a.lead].rel)
	}) {
		return p, nil
	}
	p, err := newPlan(l.s, db)
	if err == nil {
		l.held.Store(p)
	}
	return p, err
}

func (l *leapfrog) exec(ctx context.Context, db cq.Database, opt Options) (*Result, *wexec, error) {
	ex := &wexec{steps: l.steps}
	ex.govern(ctx, db, opt)
	ex.limit = ex.lim(&ex.stats.Work)
	err := ex.run(l)
	for d := range ex.seeks {
		ex.stats.Seeks += ex.seeks[d]
		ex.stats.Extensions += ex.extensions[d]
	}
	res, err := ex.finish(ex.out, err)
	return res, ex, err
}

// ExecWCOJContext analyzes q (jointree.Analyze) and runs it on the
// leapfrog join (NewWCOJ), for callers that run a query once.
func ExecWCOJContext(ctx context.Context, q *cq.Query, db cq.Database, opt Options) (*Result, error) {
	s, err := jointree.Analyze(q)
	if err != nil {
		return refused(ctx, db, opt, err)
	}
	return NewWCOJ(s, 0).Run(ctx, db, opt)
}

// NewWCOJ returns the leapfrog multiway join for the analyzed query. Run
// evaluates it under the structure's MCS/smallest-domain variable order:
// total work within the AGM output bound, no binary-join intermediates.
// Errors are classified like the other executors'; the Result is never
// nil. Explain renders the variable order (explainWCOJ). The order is
// fixed once per plan, revalidated per run: a run over the arenas the held
// plan read reuses it, so one value serves concurrent requests. A positive
// steps caps a run's seeks: one that spends them before it finishes fails
// with ErrWorkLimit, which degrades; 0 is no cap.
func NewWCOJ(s *jointree.Structure, steps int64) Fallback {
	return (&leapfrog{s: s, steps: steps}).fallback()
}

func (l *leapfrog) fallback() Fallback {
	return Fallback{
		Run: func(ctx context.Context, db cq.Database, opt Options) (*Result, error) {
			res, _, err := l.exec(ctx, db, opt)
			return res, err
		},
		Explain: func(db cq.Database, opt Options, analyze bool) (string, error) {
			return explainWCOJ(l, db, opt, analyze)
		},
	}
}
