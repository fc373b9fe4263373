// Yannakakis full-reducer execution (ROADMAP item 2).
//
// The plan executors materialize every intermediate a plan names, and on
// low-width queries most of that work is wasted: once a join tree exists,
// a bottom-up then top-down semijoin sweep deletes every tuple that
// cannot contribute to the answer ("Algorithms for Optimizing Acyclic
// Queries", arXiv 2509.14144 — the classic Yannakakis algorithm), after
// which the bag-by-bag evaluation is output-bounded. This file implements
// that strategy over the paper's own machinery: it sweeps the
// join-expression tree of Algorithm 3 that the query's structural analysis
// builds from the MCS elimination order (Section 5) and the tree
// decomposition it induces (jointree.Analyze).
//
// Execution runs in five phases over the interior nodes of the join tree:
//
//  1. bind: each bag binds the atoms hosted at it as zero-copy views — no
//     join before reduction. The bag tree and the views are built once per
//     database and shared by the runs over the same arenas;
//  2. seed walk: starting from the bag hosting the atom with the fewest
//     rows (ties to the first in pre-order), walk the bag tree outward as
//     an undirected tree, each neighbour semijoin-reduced by the bag the
//     walk came from (relation.SemijoinFilter: a bound view is marked from
//     its stored relation's column index and its survivors copied out, a
//     relation the run made is compacted in place). A
//     bag hosting two or more atoms is joined, in hosting order, the first
//     time the run needs it whole: when it becomes the source of a
//     semijoin, or else at the end of this phase. Until then a semijoin
//     that targets it filters each hosted atom instead, so the join is
//     formed from atoms already reduced. A lone bag, one no neighbour
//     hosts atoms (as in a one-bag tree), is left to phase 5;
//  3. bottom-up sweep: children before parents, each bag semijoin-reduces
//     its parent;
//  4. top-down sweep: parents before children, each bag is reduced by its
//     parent. After both sweeps the bags are fully reduced along every
//     tree edge;
//  5. evaluate: bottom-up, each bag joins its children's results and
//     projects onto its interface with the parent (Node.Projected), the
//     root projecting onto the target schema. Relations are sets, so when
//     C's columns all lie in R's, R ⋈ C = R ⋉ C: such a join runs as a
//     semijoin, and none where R is its bag's relation whole and C the
//     child's, projected: the sweeps left each tuple of R a partner there.
//     A join that is the bag's last step before its projection is fused
//     with it (relation.JoinProjectLimited), so the join is never written:
//     the join onto the last child, or a lone bag's last hosted-atom join,
//     which forms the bag here, its rows those of every phase before.
//
// Phases 2–4 skip a semijoin that cannot remove a tuple. Bags only
// shrink. If R was reduced by S, and S has since lost tuples only to
// semijoins by R, each of those had no partner in R then, so none in R
// now: R ⋉ S is still R. Each bag counts its changes (its join, and each
// semijoin that removed a tuple), and each tree edge keeps per direction
// the source's count when it last reduced the target, carried forward
// while the source changes only through semijoins by the target. A filter
// on hosted atoms before the bag's join records nothing.
//
// The walk exists because the sweeps ignore where the selectivity is: with
// a small relation at the root, the bottom-up sweep builds a probe table
// over every unreduced bag before the root's bindings reach anything. It
// goes on past a neighbour only if that semijoin removed a tuple, so where
// nothing reduces (3-COLOR's complete edge relation) it stops after the
// seed's neighbours instead of paying for a third pass. It never crosses
// an atom-less root: semijoins along tree edges remove only tuples the
// sweeps would remove too, so the sweeps still end in the same unique
// state. A filter on a hosted atom removes only tuples whose every join
// row the bag-level semijoin would remove, so that state is what joining
// first would reach; only the rows materialized on the way are fewer.
//
// Tuples deleted by phases 2–4 are counted in Stats.ReducedTuples — an
// atom tuple filtered before its bag's join once, however many join rows
// it would have fanned out to — and tuples written by the bag joins and
// phase 5 in Stats.MaterializedTuples. Like the plan
// executors, every kernel call is context-cancellable, deadline-bounded,
// and charged against the shared MaxBytes budget; a panic anywhere in the
// sweep is isolated and surfaces as ErrInternal.
package engine

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"projpush/internal/cq"
	"projpush/internal/jointree"
	"projpush/internal/relation"
)

// DefaultYannakakisWidth is the MCS-elimination-width threshold up to
// which the server's router and the degradation ladder prefer the Yannakakis
// full reducer: acyclic queries have elimination width at most the atom
// arity, and the full reducer's intermediates stay output-bounded while
// the width (hence bag size) is small.
const DefaultYannakakisWidth = 3

// ytree is the bag tree of one analyzed query: the join tree's interior
// nodes in pre-order and the atoms they host, each bag's a block. Bound
// (bind), it holds per atom its stored relation and zero-copy view, what
// binding observed, and the seed: the bag hosting the atom with the fewest
// rows, ties to the first in pre-order.
type ytree struct {
	jt          *jointree.Tree
	bags        []ynode
	atoms       []*cq.Atom
	srcs, views []*relation.Relation
	scanned     Stats
	seed        int
}

// ynode is one bag: its join-tree node, its parent's and children's
// positions in pre-order (-1: none), and its hosted atoms, atoms[lo:hi].
type ynode struct {
	node           *jointree.Node
	children       []int
	parent, lo, hi int
}

// add appends n's subtree under the bag at parent, splitting each node's
// children into hosted atoms and interior subtrees. Interior bags hosting
// no atoms have no relation for the sweeps to reduce — left in place they
// would cut the reduction path between their children and their parent —
// so add splices them out, lifting their children to the grandparent.
// Semijoin edges stay correct under any tree surgery (each kernel call
// matches on the actual shared attributes); only the root may remain
// atom-less, and eval handles it by joining the child results directly.
func (t *ytree) add(n *jointree.Node, parent int) {
	lo, at := len(t.atoms), parent
	for _, c := range n.Children {
		if c.Atom != nil {
			t.atoms = append(t.atoms, c.Atom)
		}
	}
	if len(t.atoms) > lo || parent < 0 {
		at = len(t.bags)
		t.bags = append(t.bags, ynode{node: n, parent: parent, lo: lo, hi: len(t.atoms)})
		if parent >= 0 {
			t.bags[parent].children = append(t.bags[parent].children, at)
		}
	}
	for _, c := range n.Children {
		if c.Atom == nil {
			t.add(c, at)
		}
	}
}

// hosts reports whether bag i exists and hosts an atom.
func (t *ytree) hosts(i int) bool { return i >= 0 && t.bags[i].hi > t.bags[i].lo }

// yannakakis is one analyzed query's full reducer: its structure and the
// tree its runs last bound, shared read-only (runs that find it stale at
// once each bind one; the last is held).
type yannakakis struct {
	s    *jointree.Structure
	held atomic.Pointer[ytree]
}

// bind returns the held tree if db binds each atom's name to the relation
// it was bound to over the same arena, and else binds and holds a new one.
func (y *yannakakis) bind(db cq.Database) (*ytree, error) {
	held := y.held.Load()
	for k := 0; held != nil && k < len(held.atoms); k++ {
		if src := held.srcs[k]; db[held.atoms[k].Rel] != src || !src.SameArena(held.views[k]) {
			held = nil
		}
	}
	if held != nil {
		return held, nil
	}
	t, g, least := &ytree{jt: y.s.Tree}, governor{db: db}, -1
	t.add(t.jt.Root, -1)
	t.srcs, t.views = make([]*relation.Relation, len(t.atoms)), make([]*relation.Relation, len(t.atoms))
	for i, n := range t.bags {
		for k := n.lo; k < n.hi; k++ {
			view, err := g.scan(&t.scanned, t.atoms[k])
			if err != nil {
				return nil, err
			}
			if t.srcs[k], t.views[k] = db[t.atoms[k].Rel], view; least < 0 || view.Len() < least {
				t.seed, least = i, view.Len()
			}
		}
	}
	y.held.Store(t)
	return t, nil
}

// ybag is one bag's state in a run.
type ybag struct {
	// rel is the join of the hosted atoms (a single atom's view), nil until
	// the run first needs it whole (joinAtoms), and on an atom-less root.
	rel *relation.Relation
	// Row counts per phase: when rel was formed, after the seed walk, the
	// bottom-up and the top-down sweep, and the evaluated output. -1 = no
	// bag relation; walked is also -1 on the seed, on every bag the walk
	// did not reach, and on a bag it reached before the join (yatom.walked).
	bound, walked, afterUp, afterDown, out int
	// What the skips read: rel's changes, this bag's count when it last
	// reduced its parent, the parent's when it last reduced this bag
	// (reduce); whether eval's result projects all of rel and no more.
	changes, up, down int
	whole             bool
}

// yatom is one hosted atom in a run: its view, filtered by semijoins that
// reach the bag before its join, and its rows after that (-1: none did).
type yatom struct {
	view   *relation.Relation
	walked int
}

// yexec is one run: the bound tree, per-bag and per-atom state indexed
// like it, and per phase (walk, bottom-up, top-down) semijoins run, skipped.
type yexec struct {
	governor
	t         *ytree
	bags      []ybag
	atoms     []yatom
	phase     int
	semijoins [3][2]int
}

// bind is phase 1: it binds the tree or takes the held one, and sets the
// run's state up; no bag hosting more than one atom is joined yet.
func (ex *yexec) bind(y *yannakakis) error {
	t, err := y.bind(ex.db)
	if err != nil {
		return err
	}
	ex.t, ex.stats = t, t.scanned
	ex.bags, ex.atoms = make([]ybag, len(t.bags)), make([]yatom, len(t.views))
	for k, v := range t.views {
		ex.atoms[k] = yatom{view: v, walked: -1}
	}
	for i, n := range t.bags {
		ex.bags[i] = ybag{bound: -1, walked: -1, afterUp: -1, afterDown: -1, out: -1}
		if n.hi-n.lo == 1 { // a single atom's view is its bag relation
			v := ex.atoms[n.lo].view
			ex.bags[i].rel, ex.bags[i].bound, ex.bags[i].changes = v, v.Len(), 1
		}
	}
	return nil
}

// joinAtoms forms bag i's relation the first time the run needs it whole:
// the join of the hosted atoms' views in hosting order (sorting them by
// size grew the peak on wide answers). The schema is bounded by the bag
// (width+1 variables), and the views are already filtered by every
// semijoin that reached the bag. An atom-less root stays without one.
// Phase 5 forms a lone bag, one no neighbour hosts atoms, so no semijoin
// reads: with keep, the last join is fused with the projection onto keep,
// returned and not held.
func (ex *yexec) joinAtoms(i int, keep []cq.Var) (*relation.Relation, error) {
	b, n := &ex.bags[i], &ex.t.bags[i]
	if b.rel != nil || n.lo == n.hi {
		return b.rel, nil
	}
	cur, rows := ex.atoms[n.lo].view, 0
	for k := n.lo + 1; k < n.hi; k++ {
		cols, err := keep, error(nil)
		if k < n.hi-1 {
			cols = nil
		}
		if cur, rows, err = ex.join(&ex.stats, cur, ex.atoms[k].view, cols); err != nil {
			return nil, err
		}
	}
	if b.bound, b.changes = rows, b.changes+1; keep == nil {
		b.rel = cur
	}
	return cur, nil
}

// reduce semijoin-filters bag r by bag s, in place, crediting the deleted
// tuples to Stats.ReducedTuples, and returns how many it deleted. The
// source is joined first if it is not yet. A target not yet joined — only
// the walk meets one — has each hosted atom that shares a variable with
// the source filtered instead, so its join is formed from reduced atoms.
// An atom-less root (or the root's parent) neither reduces nor gets
// reduced: correctness never depends on a sweep edge, only the amount of
// reduction does. One the skip rule proves empty is counted, not run.
func (ex *yexec) reduce(r, s int) (int, error) {
	if !ex.t.hosts(r) || !ex.t.hosts(s) {
		return 0, nil
	}
	if _, err := ex.joinAtoms(s, nil); err != nil {
		return 0, err
	}
	rb, sb, count := &ex.bags[r], &ex.bags[s], &ex.semijoins[ex.phase]
	seen, back := &rb.down, &rb.up // s's count when it last reduced r, r's when r last reduced s
	if ex.t.bags[s].parent == r {
		seen, back = &sb.up, &sb.down
	}
	if rb.rel != nil && *seen == sb.changes {
		count[1]++
		return 0, nil
	}
	count[0]++
	if rb.rel != nil {
		removed, err := ex.filter(&rb.rel, sb.rel)
		if removed > 0 {
			if *back == rb.changes {
				*back++
			}
			rb.changes++
		}
		*seen = sb.changes
		return removed, err
	}
	removed, n := 0, &ex.t.bags[r]
	for i := n.lo; i < n.hi; i++ {
		a := &ex.atoms[i]
		if len(relation.SharedAttrs(a.view, sb.rel)) == 0 {
			continue
		}
		k, err := ex.filter(&a.view, sb.rel)
		if err != nil {
			return 0, err
		}
		a.walked = a.view.Len()
		removed += k
	}
	return removed, nil
}

// filter replaces *r by *r ⋉ by and counts what it deleted.
func (ex *yexec) filter(r **relation.Relation, by *relation.Relation) (int, error) {
	out, removed, err := relation.SemijoinFilter(*r, by, ex.lim(&ex.stats.Work))
	if err != nil {
		return 0, err
	}
	ex.stats.ReducedTuples += int64(removed)
	*r = out
	return removed, nil
}

// walk reduces each neighbour of bag b other than from by b, then walks
// on from every neighbour that lost a tuple. A neighbour hosting no atoms
// (an atom-less root) ends the walk on that side.
func (ex *yexec) walk(b, from int) error {
	n := &ex.t.bags[b]
	for i := -1; i < len(n.children); i++ { // -1 is the parent
		next := n.parent
		if i >= 0 {
			next = n.children[i]
		}
		if next == from || !ex.t.hosts(next) {
			continue
		}
		removed, err := ex.reduce(next, b)
		if err != nil {
			return err
		}
		if r := ex.bags[next].rel; r != nil {
			ex.bags[next].walked = r.Len()
		}
		if removed > 0 {
			if err := ex.walk(next, b); err != nil {
				return err
			}
		}
	}
	return nil
}

// eval computes bag b's subtree result bottom-up: the bag relation joined
// with every child's result, projected onto the node's interface with its
// parent. A join onto a subset schema runs as a semijoin or none (phase 5
// above), counted as the join; what it removes is not ReducedTuples.
func (ex *yexec) eval(b int) (*relation.Relation, error) {
	bag, n := &ex.bags[b], &ex.t.bags[b]
	cur := bag.rel
	if cur == nil && n.hi > n.lo { // a lone bag: no semijoin changed it
		var err error
		if cur, err = ex.joinAtoms(b, n.node.Projected); err != nil {
			return nil, err
		}
		bag.afterUp, bag.afterDown = bag.bound, bag.bound
	}
	whole := cur != nil // cur is the bag's relation with every tuple
	for k, c := range n.children {
		cr, err := ex.eval(c)
		switch {
		case err != nil:
		case cur == nil:
			cur = cr
		case slices.ContainsFunc(cr.Attrs(), func(a relation.Attr) bool { return !cur.HasAttr(a) }):
			var cols []cq.Var
			if k == len(n.children)-1 { // the bag's last step: fused with its projection
				cols = n.node.Projected
			}
			cur, _, err = ex.join(&ex.stats, cur, cr, cols)
			whole = false
		case whole && ex.bags[c].whole: // the sweeps left every tuple a partner
			observe(&ex.stats, cur)
			ex.stats.Joins++
		default:
			prev, removed := cur, 0
			if cur, removed, err = relation.SemijoinFilter(cur, cr, ex.lim(&ex.stats.Work)); err == nil && cur != prev {
				materialized(&ex.stats, cur) // survivors copied out of a view
			} else if err == nil {
				observe(&ex.stats, cur)
			}
			ex.stats.Joins++
			whole = whole && removed == 0
		}
		if err != nil {
			return nil, err
		}
	}
	if cur == nil {
		// Validate guarantees interior nodes have children, so a bag
		// with no atoms has interior children with results.
		return nil, fmt.Errorf("engine: yannakakis bag with no relation")
	}
	if len(n.node.Projected) != len(cur.Attrs()) {
		var err error
		if cur, err = ex.project(&ex.stats, cur, n.node.Projected); err != nil {
			return nil, err
		}
	}
	bag.out, bag.whole = cur.Len(), whole
	return cur, nil
}

// run executes the five phases over the bag tree, panic-isolated: a fault
// anywhere inside the sweep surfaces as a *relation.PanicError, which
// classifyErr maps to ErrInternal.
func (ex *yexec) run(y *yannakakis) (rel *relation.Relation, err error) {
	defer relation.RecoverPanic(&err)
	if err := ex.bind(y); err != nil {
		return nil, err
	}
	// Phase 2: walk outward from the smallest atom's bag, then join every
	// bag the walk did not need whole but a lone one.
	if err := ex.walk(ex.t.seed, -1); err != nil {
		return nil, err
	}
	for i, n := range ex.t.bags {
		if !ex.t.hosts(n.parent) && len(n.children) == 0 {
			continue // lone: phase 5 forms it
		}
		if _, err := ex.joinAtoms(i, nil); err != nil {
			return nil, err
		}
	}
	// Phase 3: bottom-up sweep. Reverse pre-order processes every
	// descendant of a node before the node itself, so a bag that reduces
	// its parent reflects its whole subtree, and no later step changes it.
	ex.phase = 1
	for i := len(ex.bags) - 1; i >= 0; i-- {
		if _, err := ex.reduce(ex.t.bags[i].parent, i); err != nil {
			return nil, err
		}
		if r := ex.bags[i].rel; r != nil {
			ex.bags[i].afterUp = r.Len()
		}
	}
	// Phase 4: top-down sweep, parents before children: a bag is final
	// once its parent has reduced it.
	ex.phase = 2
	for i := range ex.bags {
		if _, err := ex.reduce(i, ex.t.bags[i].parent); err != nil {
			return nil, err
		}
		if r := ex.bags[i].rel; r != nil {
			ex.bags[i].afterDown = r.Len()
		}
	}
	// Phase 5: bag-by-bag evaluation up the tree.
	out, err := ex.eval(0)
	if err != nil {
		return nil, err
	}
	// The root's schema is set-equal to the target schema (Validate);
	// align the column order with the plan executors' final projection.
	// A bound view is the held tree's: the caller gets one of its own.
	if q := ex.t.jt.Query; !slices.Equal(out.Attrs(), q.Free) {
		return ex.project(&ex.stats, out, q.Free)
	} else if slices.Contains(ex.t.views, out) {
		return relation.Rename(out, nil), nil
	}
	return out, nil
}

// ExecYannakakisContext analyzes q (jointree.Analyze) and runs it on the
// full reducer (NewYannakakis), for callers that run a query once.
func ExecYannakakisContext(ctx context.Context, q *cq.Query, db cq.Database, opt Options) (*Result, error) {
	s, err := jointree.Analyze(q)
	if err != nil {
		return refused(ctx, db, opt, err)
	}
	return NewYannakakis(s).Run(ctx, db, opt)
}

// NewYannakakis returns the full reducer for the analyzed query. Run
// executes the full-reducer sweep over the structure's join tree. Errors
// are classified exactly like the plan executors' (ErrTimeout,
// ErrCanceled, ErrRowLimit, ErrMemLimit, ErrInternal); the returned Result
// is always non-nil and carries the partial stats of a failed run. Explain
// renders the sweep tree (explainYannakakis). The bag tree and the atoms'
// views are built once per database, revalidated per run: a run over the
// arenas the held tree read reuses it and keeps only its per-bag state,
// so one value serves concurrent requests.
func NewYannakakis(s *jointree.Structure) Fallback {
	y := &yannakakis{s: s}
	return Fallback{
		Run: func(ctx context.Context, db cq.Database, opt Options) (*Result, error) {
			res, _, err := y.exec(ctx, db, opt)
			return res, err
		},
		Explain: func(db cq.Database, opt Options, analyze bool) (string, error) {
			return explainYannakakis(y, db, opt, analyze)
		},
	}
}

func (y *yannakakis) exec(ctx context.Context, db cq.Database, opt Options) (*Result, *yexec, error) {
	ex := new(yexec)
	ex.govern(ctx, db, opt)
	rel, err := ex.run(y)
	res, err := ex.finish(rel, err)
	return res, ex, err
}
