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
// first), computed once per query, with each block stably reordered per
// run by an upper bound on the variable's domain. Free variables occupy the
// order's prefix, so the first level at which every output attribute's
// support is complete is exactly len(Free): below it the executor stops
// at the first witness per assignment (early projection as existence
// checking) instead of enumerating the full expansion.
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
	"slices"
	"sort"

	"projpush/internal/cq"
	"projpush/internal/faultinject"
	"projpush/internal/jointree"
	"projpush/internal/relation"
)

// wcojAtom is one atom's execution state: the bound relation, its sorted
// index (columns ordered by the global variable order), and a bracket
// stack — lo[k],hi[k) is the index range consistent with the bindings of
// the atom's first k variables; lo[0],hi[0) is the whole index.
type wcojAtom struct {
	atom *cq.Atom
	rel  *relation.Relation
	cols []relation.Attr // the atom's variables in global-order sequence
	ix   *relation.SortedIndex
	lo   []int
	hi   []int
}

// wcojLevel is one variable of the global order with the atoms whose
// intersection defines the variable's candidate values.
type wcojLevel struct {
	v     cq.Var
	atoms []*wcojAtom
	depth []int // local index depth of v in the corresponding atom
	pos   []int // scratch: current index position per atom
	end   []int // scratch: end of the current value's run per atom

	// seeks counts SeekGE/SeekGT calls at this level, extensions the
	// values that survived the intersection — the leapfrog analogue of
	// probe work and output fanout, rendered by EXPLAIN ANALYZE.
	seeks, extensions int64
}

// wexec is the worst-case-optimal executor's state: the run governor plus
// the variable order and the per-level leapfrog state.
type wexec struct {
	governor
	s     *jointree.Structure
	limit *relation.Limit

	steps   int64 // the seek budget (NewWCOJ); 0 is none
	vars    []cq.Var
	freeCut int // levels [0,freeCut) are free; below it, existence only
	atoms   []*wcojAtom
	levels  []*wcojLevel
	assign  []relation.Value
	empty   bool // some bound relation is empty: the answer is empty
	indexes int  // distinct sorted indexes read; atoms on one arena and order share

	out      *relation.Relation
	outBuf   relation.Tuple
	outSrc   []int // output column -> level index
	outBytes int64
}

func newWexec(ctx context.Context, s *jointree.Structure, steps int64, db cq.Database, opt Options) *wexec {
	ex := &wexec{s: s, steps: steps}
	ex.govern(ctx, db, opt)
	ex.limit = ex.lim(&ex.stats.Work)
	return ex
}

// prepare binds the atoms and fixes the global variable order and the
// per-level intersection structure; it does not build indexes or touch
// tuples, so EXPLAIN without ANALYZE can render the order cheaply.
func (ex *wexec) prepare() error {
	q := ex.s.Query
	ex.atoms = make([]*wcojAtom, len(q.Atoms))
	dom := make(map[cq.Var]int) // domain upper bound: min |R| over atoms
	for i := range q.Atoms {
		a := &q.Atoms[i]
		rel, err := ex.scan(&ex.stats, a)
		if err != nil {
			return err
		}
		ex.atoms[i] = &wcojAtom{atom: a, rel: rel}
		if rel.Empty() {
			ex.empty = true
		}
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
	ex.freeCut = len(q.Free)
	if ex.freeCut > len(ex.s.Order) {
		return fmt.Errorf("engine: wcoj order shorter than the target schema")
	}
	byDomain := func(block []cq.Var) {
		sort.SliceStable(block, func(i, j int) bool { return dom[block[i]] < dom[block[j]] })
	}
	ex.vars = append([]cq.Var(nil), ex.s.Order...)
	byDomain(ex.vars[:ex.freeCut])
	byDomain(ex.vars[ex.freeCut:])

	levelOf := make(map[cq.Var]int, len(ex.vars))
	ex.levels = make([]*wcojLevel, len(ex.vars))
	for d, v := range ex.vars {
		levelOf[v] = d
		ex.levels[d] = &wcojLevel{v: v}
	}
	for _, a := range ex.atoms {
		// The atom's index columns, in global order; its k-th column is
		// its local depth k.
		args := append([]cq.Var(nil), a.atom.Args...)
		sort.Slice(args, func(i, j int) bool { return levelOf[args[i]] < levelOf[args[j]] })
		a.cols = args
		for k, v := range args {
			lv := ex.levels[levelOf[v]]
			lv.atoms = append(lv.atoms, a)
			lv.depth = append(lv.depth, k)
		}
		a.lo = make([]int, len(args)+1)
		a.hi = make([]int, len(args)+1)
	}
	for _, lv := range ex.levels {
		if len(lv.atoms) == 0 {
			// Unreachable for validated queries (every free variable occurs
			// in an atom), but an unconstrained variable would mean an
			// infinite domain — fail loudly rather than loop.
			return fmt.Errorf("engine: wcoj variable x%d constrained by no atom", lv.v)
		}
		lv.pos = make([]int, len(lv.atoms))
		lv.end = make([]int, len(lv.atoms))
	}

	ex.assign = make([]relation.Value, len(ex.vars))
	ex.out = relation.New(q.Free)
	ex.outBuf = make(relation.Tuple, len(q.Free))
	ex.outSrc = make([]int, len(q.Free))
	for i, v := range q.Free {
		ex.outSrc[i] = levelOf[v]
	}
	return nil
}

// execute looks the atoms' sorted indexes up and runs the leapfrog
// enumeration. An index is resident state of its arena, built by the first
// run that asks and charged to none; atoms over one arena in one column
// order — the triangle's e(x,y) and e(y,z) — share it, each with its own
// brackets. Each distinct index passes the kernel's fault points.
func (ex *wexec) execute() error {
	if ex.empty {
		return nil
	}
	for i, a := range ex.atoms {
		if a.rel.Arity() == 0 {
			// A nonempty arity-0 atom is a satisfied Boolean factor.
			continue
		}
		ix, err := a.rel.SortedIndex(a.cols)
		if err != nil {
			return err
		}
		a.ix = ix
		a.lo[0], a.hi[0] = 0, ix.Len()
		if slices.ContainsFunc(ex.atoms[:i], func(b *wcojAtom) bool { return b.ix == ix }) {
			continue
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
	ex.stats.Joins++
	return ex.enumerate(0)
}

// enumerate extends the assignment at level d. Levels below freeCut bind
// free variables and recurse; at freeCut every output attribute's support
// is complete, so the remaining levels are checked for a single witness
// (exists) and the assignment is emitted — the executor's early
// projection.
func (ex *wexec) enumerate(d int) error {
	if d == ex.freeCut {
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
	if d == len(ex.vars) {
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
	lv := ex.levels[d]
	for i, a := range lv.atoms {
		k := lv.depth[i]
		if a.lo[k] >= a.hi[k] {
			return false, nil
		}
		lv.pos[i] = a.lo[k]
	}
	for {
		// The current candidate is the maximum of the atoms' cursor
		// values; any atom below it can never match a smaller value.
		vmax := lv.atoms[0].ix.Value(lv.pos[0], lv.depth[0])
		allEqual := true
		for i := 1; i < len(lv.atoms); i++ {
			v := lv.atoms[i].ix.Value(lv.pos[i], lv.depth[i])
			if v != vmax {
				allEqual = false
				if v > vmax {
					vmax = v
				}
			}
		}
		if !allEqual {
			for i, a := range lv.atoms {
				k := lv.depth[i]
				if a.ix.Value(lv.pos[i], k) < vmax {
					lv.pos[i] = a.ix.SeekGE(k, lv.pos[i], a.hi[k], vmax)
					lv.seeks++
					if err := ex.tick(); err != nil {
						return false, err
					}
					if lv.pos[i] >= a.hi[k] {
						return false, nil
					}
				}
			}
			continue
		}
		// All atoms agree on vmax: narrow each bracket to its run and
		// descend.
		for i, a := range lv.atoms {
			k := lv.depth[i]
			lv.end[i] = a.ix.SeekGT(k, lv.pos[i], a.hi[k], vmax)
			lv.seeks++
			if err := ex.tick(); err != nil {
				return false, err
			}
			a.lo[k+1], a.hi[k+1] = lv.pos[i], lv.end[i]
		}
		ex.assign[d] = vmax
		lv.extensions++
		if ex.steps > 0 && ex.ticks > ex.steps {
			return false, ErrWorkLimit
		}
		stop, err := visit()
		if err != nil || stop {
			return stop, err
		}
		for i, a := range lv.atoms {
			k := lv.depth[i]
			lv.pos[i] = lv.end[i]
			if lv.pos[i] >= a.hi[k] {
				return false, nil
			}
		}
	}
}

// emit writes the current free-variable assignment into the output,
// charging growth against the byte budget and the row cap.
func (ex *wexec) emit() error {
	for i, src := range ex.outSrc {
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

// run executes prepare + execute, panic-isolated, charging the seeks the
// governor ticked into Work on every exit path.
func (ex *wexec) run() (err error) {
	defer relation.RecoverPanic(&err)
	defer func() { ex.limit.Charge(ex.ticks) }()
	if err := ex.prepare(); err != nil {
		return err
	}
	if err := ex.execute(); err != nil {
		return err
	}
	materialized(&ex.stats, ex.out)
	return nil
}

func execWCOJ(ctx context.Context, s *jointree.Structure, steps int64, db cq.Database, opt Options) (*Result, *wexec, error) {
	ex := newWexec(ctx, s, steps, db, opt)
	err := ex.run()
	for _, lv := range ex.levels {
		ex.stats.Seeks += lv.seeks
		ex.stats.Extensions += lv.extensions
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
// nil. Explain renders the variable order (explainWCOJ). Every run starts
// from the structure, which nothing writes, so one value serves concurrent
// requests. A positive steps caps a run's seeks: one that spends them
// before it finishes fails with ErrWorkLimit, which degrades; 0 is no cap.
func NewWCOJ(s *jointree.Structure, steps int64) Fallback {
	return Fallback{
		Run: func(ctx context.Context, db cq.Database, opt Options) (*Result, error) {
			res, _, err := execWCOJ(ctx, s, steps, db, opt)
			return res, err
		},
		Explain: func(db cq.Database, opt Options, analyze bool) (string, error) {
			return explainWCOJ(s, steps, db, opt, analyze)
		},
	}
}
