package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"projpush/internal/cq"
	"projpush/internal/relation"
)

// governor is the run governor every executor embeds: the database the
// run binds its atoms against, the limits it is held to (context,
// deadline, row cap, byte budget), the run's stats frame, and the shared
// exit that stamps Elapsed and classifies a failure. What differs between
// executors — what the byte budget bounds, which operators exist — lives
// in the embedding type.
type governor struct {
	db       cq.Database
	ctx      context.Context
	deadline time.Time
	maxRows  int
	maxBytes int64
	// bytes is the byte-budget counter every kernel call of the run
	// charges, so MaxBytes bounds the run, not any one operator.
	bytes atomic.Int64
	stats Stats
	start time.Time
	ticks int64
}

// govern fixes the run's limits and starts its clock.
func (g *governor) govern(ctx context.Context, db cq.Database, opt Options) {
	g.db, g.ctx = db, ctx
	g.maxRows, g.maxBytes = opt.MaxRows, opt.MaxBytes
	g.start = time.Now()
	if opt.Timeout > 0 {
		g.deadline = g.start.Add(opt.Timeout)
	}
}

// lim builds the limit for one kernel call, charging touched tuples into
// work.
func (g *governor) lim(work *int64) *relation.Limit {
	return &relation.Limit{
		MaxRows:  g.maxRows,
		Deadline: g.deadline,
		Work:     work,
		Ctx:      g.ctx,
		MaxBytes: g.maxBytes,
		Bytes:    &g.bytes,
	}
}

// tick counts one tuple touched by an engine-side loop and polls for
// cancellation and deadline expiry at the kernels' cadence, so every
// executor stops within the same bounded amount of work. The poll is kept
// out of line so the count inlines into the loops.
func (g *governor) tick() error {
	g.ticks++
	if g.ticks&(relation.CheckInterval-1) != 0 { // CheckInterval is a power of two
		return nil
	}
	return g.interrupted()
}

//go:noinline
func (g *governor) interrupted() error {
	return (&relation.Limit{Ctx: g.ctx, Deadline: g.deadline}).Interrupted()
}

// resolve looks an atom's relation up in the database and checks it has
// the atom's arity.
func (g *governor) resolve(a *cq.Atom) (*relation.Relation, error) {
	rel, ok := g.db[a.Rel]
	if !ok {
		return nil, fmt.Errorf("engine: unknown relation %q", a.Rel)
	}
	if rel.Arity() != len(a.Args) {
		return nil, fmt.Errorf("engine: atom %s arity mismatch with relation (%d columns)",
			a, rel.Arity())
	}
	return rel, nil
}

// bind resolves one atom as a zero-copy view of its relation whose
// columns carry the atom's variables.
func (g *governor) bind(a *cq.Atom) (*relation.Relation, error) {
	rel, err := g.resolve(a)
	if err != nil {
		return nil, err
	}
	m := make(map[relation.Attr]relation.Attr, rel.Arity())
	for i, attr := range rel.Attrs() {
		m[attr] = a.Args[i]
	}
	return relation.Rename(rel, m), nil
}

// scan is the Scan operator: the atom's bound view, observed into st.
func (g *governor) scan(st *Stats, a *cq.Atom) (*relation.Relation, error) {
	bound, err := g.bind(a)
	if err == nil {
		observe(st, bound)
	}
	return bound, err
}

// join is the materializing Join operator, and reports the join's rows.
// With cols that drop a column of the join the SELECT DISTINCT operator
// onto cols follows in the same kernel call (relation.JoinProjectLimited),
// and st observes both as the two kernels report them but for the join's
// arena, which is never written. A nil cols keeps every column.
func (g *governor) join(st *Stats, l, r *relation.Relation, cols []cq.Var) (*relation.Relation, int, error) {
	arity := 0
	if cols != nil {
		if arity = l.Arity() + r.Arity() - len(relation.SharedAttrs(l, r)); len(cols) == arity {
			cols = nil // nothing to project: the join, in its own order
		}
	}
	out, rows, err := relation.JoinProjectLimited(l, r, cols, g.lim(&st.Work))
	if err != nil {
		return nil, 0, err
	}
	if st.Joins++; cols != nil { // and the join's rows, never written
		st.Projections++
		st.MaxRows, st.MaxArity, st.Tuples = max(st.MaxRows, rows), max(st.MaxArity, arity), st.Tuples+int64(rows)
	}
	materialized(st, out)
	return out, rows, nil
}

// project is the materializing SELECT DISTINCT operator.
func (g *governor) project(st *Stats, r *relation.Relation, cols []cq.Var) (*relation.Relation, error) {
	out, err := relation.ProjectLimited(r, cols, g.lim(&st.Work))
	if err == nil {
		st.Projections++
		materialized(st, out)
	}
	return out, err
}

// refused is the Result of a run that cannot start — the query has no
// structure to execute — stamped by the governor's exit like every other.
func refused(ctx context.Context, db cq.Database, opt Options, err error) (*Result, error) {
	var g governor
	g.govern(ctx, db, opt)
	return g.finish(nil, err)
}

// finish is the exit of every entry point: it stamps Elapsed and
// classifies a failure into the engine's sentinels. The Result is never
// nil; a failed run's carries the partial stats.
func (g *governor) finish(rel *relation.Relation, err error) (*Result, error) {
	g.stats.Elapsed = time.Since(g.start)
	if err != nil {
		return &Result{Stats: g.stats}, classifyErr(err, g.stats.Elapsed)
	}
	return &Result{Rel: rel, Stats: g.stats}, nil
}
