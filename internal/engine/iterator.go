package engine

import (
	"context"
	"fmt"

	"projpush/internal/cq"
	"projpush/internal/plan"
	"projpush/internal/relation"
)

// This file implements a second executor for the same plans: a
// Volcano-style iterator (pull) engine, the execution model PostgreSQL —
// the paper's backend — actually uses. Joins build a hash table on the
// right input and stream the left input through it; projections
// deduplicate on the fly. Tuples flow one at a time, so operators other
// than hash-table builds and DISTINCT never materialize full
// intermediates.
//
// The hot paths run on the same kernels as the materializing executors:
// hash-join build tables are relation.StreamTable (flat tuple arena,
// packed-uint64/FNV join keys, open-addressing with flat duplicate
// chains) and DISTINCT state is a relation.Relation used as a dedup set —
// no string keys, no Go maps. BenchmarkEngineIterJoin measures the swap
// against the former map[string][]Tuple implementation.
//
// The materializing executor (Exec) and this one compute identical
// results; BenchmarkAblationExecutor compares them. For the paper's
// workloads the two behave alike because SELECT DISTINCT subqueries force
// materialization at every projection anyway — which is exactly why
// intermediate *arity* (width) rather than engine style governs cost.

// iterator produces tuples over a fixed schema, one per Next call.
type iterator interface {
	// Schema returns the output attributes in column order.
	Schema() []cq.Var
	// Next returns the next tuple, or nil at end of stream. The
	// returned tuple is only valid until the next call.
	Next() (relation.Tuple, error)
	// Close releases the operator's resident state back to the byte
	// budget and closes its inputs. It is idempotent.
	Close()
}

// scanIter streams a base relation with columns bound to atom variables.
type scanIter struct {
	schema []cq.Var
	rows   []relation.Tuple
	pos    int
}

func (s *scanIter) Schema() []cq.Var { return s.schema }

func (s *scanIter) Next() (relation.Tuple, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	t := s.rows[s.pos]
	s.pos++
	return t, nil
}

func (s *scanIter) Close() {}

// hashJoinIter builds a hash table over the right input, then streams the
// left input, probing and emitting combined tuples.
type hashJoinIter struct {
	ctx         *streamContext
	left, right iterator
	schema      []cq.Var

	sharedLeft  []int // column indexes of shared attrs in left
	sharedRight []int // column indexes in right
	leftCols    []int // schema assembly: left column index or -1
	rightCols   []int // schema assembly: right column index or -1

	table      *relation.StreamTable
	built      bool
	closed     bool
	tableBytes int64          // last-seen table footprint, for budget deltas
	cur        relation.Tuple // current left tuple (buffer, reused)
	matches    relation.StreamMatches
	out        relation.Tuple
}

func newHashJoinIter(ctx *streamContext, left, right iterator) *hashJoinIter {
	ls, rs := left.Schema(), right.Schema()
	rpos := make(map[cq.Var]int, len(rs))
	for i, a := range rs {
		rpos[a] = i
	}
	j := &hashJoinIter{ctx: ctx, left: left, right: right}
	for i, a := range ls {
		j.schema = append(j.schema, a)
		j.leftCols = append(j.leftCols, i)
		j.rightCols = append(j.rightCols, -1)
		if ri, ok := rpos[a]; ok {
			j.sharedLeft = append(j.sharedLeft, i)
			j.sharedRight = append(j.sharedRight, ri)
		}
	}
	lpos := make(map[cq.Var]int, len(ls))
	for i, a := range ls {
		lpos[a] = i
	}
	for i, a := range rs {
		if _, ok := lpos[a]; !ok {
			j.schema = append(j.schema, a)
			j.leftCols = append(j.leftCols, -1)
			j.rightCols = append(j.rightCols, i)
		}
	}
	j.out = make(relation.Tuple, len(j.schema))
	j.table = relation.NewStreamTable(len(rs), j.sharedRight)
	return j
}

func (j *hashJoinIter) Schema() []cq.Var { return j.schema }

func (j *hashJoinIter) build() error {
	n := 0
	for {
		t, err := j.right.Next()
		if err != nil {
			return err
		}
		if t == nil {
			break
		}
		if err := j.ctx.tick(); err != nil {
			return err
		}
		n++
		if j.ctx.maxRows > 0 && n > j.ctx.maxRows {
			return relation.ErrRowLimit
		}
		j.table.Insert(t)
		if err := j.ctx.hold(j.table.Bytes(), &j.tableBytes, nil); err != nil {
			return err
		}
	}
	// The build side is fully materialized: close the right subtree so
	// nested builds and dedup states go back to the budget now.
	j.right.Close()
	j.built = true
	return nil
}

func (j *hashJoinIter) Next() (relation.Tuple, error) {
	if !j.built {
		if err := j.build(); err != nil {
			return nil, err
		}
	}
	for {
		if j.cur != nil {
			if rt := j.matches.Next(); rt != nil {
				for i := range j.schema {
					if lc := j.leftCols[i]; lc >= 0 {
						j.out[i] = j.cur[lc]
					} else {
						j.out[i] = rt[j.rightCols[i]]
					}
				}
				return j.out, nil
			}
		}
		t, err := j.left.Next()
		if err != nil {
			return nil, err
		}
		if t == nil {
			// Probe input exhausted: nothing will be emitted again, so
			// the build table goes back to the budget immediately.
			j.Close()
			return nil, nil
		}
		if err := j.ctx.tick(); err != nil {
			return nil, err
		}
		j.cur = append(j.cur[:0], t...)
		j.matches = j.table.Probe(j.cur, j.sharedLeft)
	}
}

func (j *hashJoinIter) Close() {
	if j.closed {
		return
	}
	j.closed = true
	j.ctx.release(&j.tableBytes, nil)
	j.cur = nil
	j.left.Close()
	j.right.Close()
}

// distinctProjectIter projects its input onto cols and deduplicates —
// the SELECT DISTINCT subquery boundary. The seen-set is a
// relation.Relation, so dedup runs on the arena + open-addressing kernel
// instead of a string-keyed map.
type distinctProjectIter struct {
	ctx       *streamContext
	in        iterator
	schema    []cq.Var
	idx       []int
	seen      *relation.Relation
	seenBytes int64 // last-seen dedup-state footprint, for budget deltas
	out       relation.Tuple
	closed    bool
}

func newDistinctProjectIter(ctx *streamContext, in iterator, cols []cq.Var) (*distinctProjectIter, error) {
	pos := make(map[cq.Var]int, len(in.Schema()))
	for i, a := range in.Schema() {
		pos[a] = i
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		j, ok := pos[c]
		if !ok {
			return nil, fmt.Errorf("engine: projection column x%d not in input schema", c)
		}
		for _, prev := range cols[:i] {
			if prev == c {
				return nil, fmt.Errorf("engine: projection repeats column x%d", c)
			}
		}
		idx[i] = j
	}
	return &distinctProjectIter{
		ctx:    ctx,
		in:     in,
		schema: append([]cq.Var(nil), cols...),
		idx:    idx,
		seen:   relation.New(cols),
		out:    make(relation.Tuple, len(cols)),
	}, nil
}

func (d *distinctProjectIter) Schema() []cq.Var { return d.schema }

func (d *distinctProjectIter) Next() (relation.Tuple, error) {
	for {
		t, err := d.in.Next()
		if err != nil {
			return nil, err
		}
		if t == nil {
			d.in.Close()
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
		if err := d.ctx.hold(d.seen.Bytes(), &d.seenBytes, nil); err != nil {
			return nil, err
		}
		if d.ctx.maxRows > 0 && d.seen.Len() > d.ctx.maxRows {
			return nil, relation.ErrRowLimit
		}
		if d.seen.Len() > d.ctx.stats.MaxRows {
			d.ctx.stats.MaxRows = d.seen.Len()
		}
		d.ctx.stats.Tuples++
		return d.out, nil
	}
}

func (d *distinctProjectIter) Close() {
	if d.closed {
		return
	}
	d.closed = true
	d.ctx.release(&d.seenBytes, nil)
	d.seen = nil
	d.in.Close()
}

// buildIterator lowers a plan to an iterator pipeline.
func buildIterator(ctx *streamContext, n plan.Node) (iterator, error) {
	switch t := n.(type) {
	case *plan.Scan:
		// Rows are read by position off the stored relation, whose tuple
		// headers are built once and kept across runs; no view is needed.
		rel, err := ctx.resolve(&t.Atom)
		if err != nil {
			return nil, err
		}
		return &scanIter{schema: t.Atom.Args, rows: rel.Tuples()}, nil
	case *plan.Join:
		l, err := buildIterator(ctx, t.Left)
		if err != nil {
			return nil, err
		}
		r, err := buildIterator(ctx, t.Right)
		if err != nil {
			return nil, err
		}
		ctx.stats.Joins++
		return newHashJoinIter(ctx, l, r), nil
	case *plan.Project:
		in, err := buildIterator(ctx, t.Child)
		if err != nil {
			return nil, err
		}
		ctx.stats.Projections++
		return newDistinctProjectIter(ctx, in, t.Cols)
	default:
		return nil, fmt.Errorf("engine: unknown plan node %T", n)
	}
}

// ExecIterator evaluates the plan with the Volcano-style pull engine and
// materializes only the final result. Results are identical to Exec; the
// Stats collected are coarser (no per-operator intermediate sizes other
// than DISTINCT states). The subplan cache (opt.Cache) is ignored: this
// engine materializes no subtree results to share.
func ExecIterator(n plan.Node, db cq.Database, opt Options) (*Result, error) {
	return ExecIteratorContext(context.Background(), n, db, opt)
}

// ExecIteratorContext is ExecIterator under a context: the pipeline polls
// the context at the same cadence as the deadline check, so cancellation
// lands within a few thousand tuples and surfaces as ErrCanceled.
func ExecIteratorContext(cctx context.Context, n plan.Node, db cq.Database, opt Options) (*Result, error) {
	ctx := &streamContext{}
	ctx.govern(cctx, db, opt)
	it, err := buildIterator(ctx, n)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	out := relation.New(append([]cq.Var(nil), it.Schema()...))
	var outBytes int64
	// done settles the run's totals: like the stream engine, the live-byte
	// peak is what this engine reports as Bytes.
	done := func(rel *relation.Relation, err error) (*Result, error) {
		ctx.stats.Bytes, ctx.stats.PeakBytes = ctx.peak, ctx.peak
		return ctx.finish(rel, err)
	}
	for {
		t, err := it.Next()
		if err != nil {
			return done(nil, err)
		}
		if t == nil {
			break
		}
		out.Add(t)
		if err := ctx.hold(out.Bytes(), &outBytes, nil); err != nil {
			return done(nil, err)
		}
		if opt.MaxRows > 0 && out.Len() > opt.MaxRows {
			return done(nil, fmt.Errorf("%w: final result", relation.ErrRowLimit))
		}
	}
	it.Close()
	if out.Arity() > ctx.stats.MaxArity {
		ctx.stats.MaxArity = out.Arity()
	}
	return done(out, nil)
}
