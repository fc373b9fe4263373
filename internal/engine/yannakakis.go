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
//     join before reduction;
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
//     formed from atoms already reduced;
//  3. bottom-up sweep: children before parents, each bag semijoin-reduces
//     its parent;
//  4. top-down sweep: parents before children, each bag is reduced by its
//     parent. After both sweeps the bags are fully reduced along every
//     tree edge;
//  5. evaluate: bottom-up, each bag joins its children's results and
//     projects onto its interface with the parent (Node.Projected), the
//     root projecting onto the target schema.
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

// ybag is one interior node of the join tree during a sweep: the atoms
// hosted here, the bag relation once they are joined, and the per-phase
// row counts EXPLAIN ANALYZE renders.
type ybag struct {
	node     *jointree.Node
	parent   *ybag
	children []*ybag
	atoms    []yatom

	// rel is the join of the hosted atoms. A single-atom bag's is its view
	// from bind; a bag hosting more is nil until the run first needs it
	// whole (see joinAtoms), and an atom-less root's stays nil.
	rel *relation.Relation

	// Row counts per phase: when rel was formed, after the seed walk
	// reduced it, after the bottom-up sweep, after the top-down sweep, and
	// the evaluated output. -1 = no bag relation (the node hosts no
	// atoms); walked is also -1 on the seed, on every bag the walk did not
	// reach, and on a bag it reached before the join (see yatom.walked).
	bound, walked, afterUp, afterDown, out int
}

// yatom is one atom hosted at a bag: its bound view, which the semijoins
// that reach the bag before its join filter in place, and the view's rows
// after bind and after the seed walk filtered it (-1 where it did not).
type yatom struct {
	atom         *cq.Atom
	view         *relation.Relation
	rows, walked int
}

// buildBags mirrors the interior skeleton of the join tree, splitting
// each node's children into hosted atoms and interior subtrees. Interior
// bags hosting no atoms have no relation for the sweeps to reduce — left
// in place they would cut the reduction path between their children and
// their parent — so buildBags splices them out, lifting their children to
// the grandparent. Semijoin edges stay correct under any tree surgery
// (each kernel call matches on the actual shared attributes); only the
// root may remain atom-less, and eval handles it by joining the child
// results directly.
func buildBags(n *jointree.Node, parent *ybag) *ybag {
	b := &ybag{node: n, parent: parent, bound: -1, walked: -1, afterUp: -1, afterDown: -1, out: -1}
	for _, c := range n.Children {
		if c.Atom != nil {
			b.atoms = append(b.atoms, yatom{atom: c.Atom, walked: -1})
		} else {
			cb := buildBags(c, b)
			if len(cb.atoms) == 0 {
				for _, gc := range cb.children {
					gc.parent = b
					b.children = append(b.children, gc)
				}
			} else {
				b.children = append(b.children, cb)
			}
		}
	}
	return b
}

// preorder collects the bag tree in pre-order (parents before children).
func preorder(b *ybag, out []*ybag) []*ybag {
	out = append(out, b)
	for _, c := range b.children {
		out = preorder(c, out)
	}
	return out
}

// yexec is the full reducer's execution state: the run governor, nothing
// more — the bags carry the rest.
type yexec struct{ governor }

// bind binds each atom hosted at b as a zero-copy view of its relation.
// Nothing is joined: a single-atom bag's view is its bag relation, and a
// bag hosting more waits for joinAtoms.
func (ex *yexec) bind(b *ybag) error {
	for i := range b.atoms {
		a := &b.atoms[i]
		view, err := ex.scan(&ex.stats, a.atom)
		if err != nil {
			return err
		}
		a.view, a.rows = view, view.Len()
	}
	if len(b.atoms) == 1 {
		return ex.joinAtoms(b)
	}
	return nil
}

// joinAtoms forms b's bag relation the first time the run needs it whole:
// the join of the hosted atoms' views in hosting order (sorting them by
// size grew the peak on wide answers). The schema is bounded by the bag
// (width+1 variables), and the views are already filtered by every
// semijoin that reached the bag. An atom-less root stays without one.
func (ex *yexec) joinAtoms(b *ybag) error {
	if b.rel != nil || len(b.atoms) == 0 {
		return nil
	}
	cur := b.atoms[0].view
	for _, a := range b.atoms[1:] {
		var err error
		if cur, err = ex.join(&ex.stats, cur, a.view); err != nil {
			return err
		}
	}
	b.rel, b.bound = cur, cur.Len()
	return nil
}

// reduce semijoin-filters target by source, in place, crediting the
// deleted tuples to Stats.ReducedTuples, and returns how many it deleted.
// The source is joined first if it is not yet. A target not yet joined —
// only the walk meets one — has each hosted atom that shares a variable
// with the source filtered instead, so its join is formed from reduced
// atoms. An atom-less root neither reduces nor gets reduced — correctness
// never depends on a sweep edge, only the amount of reduction does.
func (ex *yexec) reduce(target, source *ybag) (int, error) {
	if len(target.atoms) == 0 || len(source.atoms) == 0 {
		return 0, nil
	}
	if err := ex.joinAtoms(source); err != nil {
		return 0, err
	}
	if target.rel != nil {
		return ex.filter(&target.rel, source.rel)
	}
	removed := 0
	for i := range target.atoms {
		a := &target.atoms[i]
		if len(relation.SharedAttrs(a.view, source.rel)) == 0 {
			continue
		}
		n, err := ex.filter(&a.view, source.rel)
		if err != nil {
			return 0, err
		}
		a.walked = a.view.Len()
		removed += n
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

// seedBag returns the bag the walk starts from: the one hosting the atom
// with the fewest rows after bind, ties to the first in pre-order. Only an
// atom-less root hosts none, so some bag always qualifies.
func seedBag(order []*ybag) *ybag {
	var seed *ybag
	least := 0
	for _, b := range order {
		for _, a := range b.atoms {
			if seed == nil || a.rows < least {
				seed, least = b, a.rows
			}
		}
	}
	return seed
}

// walk reduces each neighbour of b other than from by b, then walks on
// from every neighbour that lost a tuple. A neighbour hosting no atoms
// (an atom-less root) ends the walk on that side.
func (ex *yexec) walk(b, from *ybag) error {
	for i := -1; i < len(b.children); i++ { // -1 is the parent
		n := b.parent
		if i >= 0 {
			n = b.children[i]
		}
		if n == nil || n == from || len(n.atoms) == 0 {
			continue
		}
		removed, err := ex.reduce(n, b)
		if err != nil {
			return err
		}
		if n.rel != nil {
			n.walked = n.rel.Len()
		}
		if removed > 0 {
			if err := ex.walk(n, b); err != nil {
				return err
			}
		}
	}
	return nil
}

// eval computes the subtree result bottom-up: the bag relation joined
// with every child's result, projected onto the node's interface with
// its parent.
func (ex *yexec) eval(b *ybag) (*relation.Relation, error) {
	cur := b.rel
	for _, c := range b.children {
		cr, err := ex.eval(c)
		if err != nil {
			return nil, err
		}
		if cur == nil {
			cur = cr
			continue
		}
		if cur, err = ex.join(&ex.stats, cur, cr); err != nil {
			return nil, err
		}
	}
	if cur == nil {
		// Validate guarantees interior nodes have children, so a bag
		// with no atoms has interior children with results.
		return nil, fmt.Errorf("engine: yannakakis bag with no relation")
	}
	if len(b.node.Projected) != len(cur.Attrs()) {
		var err error
		if cur, err = ex.project(&ex.stats, cur, b.node.Projected); err != nil {
			return nil, err
		}
	}
	b.out = cur.Len()
	return cur, nil
}

// run executes the five phases over the bag tree, panic-isolated: a fault
// anywhere inside the sweep surfaces as a *relation.PanicError, which
// classifyErr maps to ErrInternal.
func (ex *yexec) run(t *jointree.Tree) (root *ybag, rel *relation.Relation, err error) {
	defer relation.RecoverPanic(&err)
	root = buildBags(t.Root, nil)
	order := preorder(root, nil)

	// Phase 1: bind the atoms; no bag is joined yet.
	for _, b := range order {
		if err := ex.bind(b); err != nil {
			return root, nil, err
		}
	}
	// Phase 2: walk outward from the smallest atom's bag, then join every
	// bag the walk did not need whole.
	if err := ex.walk(seedBag(order), nil); err != nil {
		return root, nil, err
	}
	for _, b := range order {
		if err := ex.joinAtoms(b); err != nil {
			return root, nil, err
		}
	}
	// Phase 3: bottom-up sweep. Reverse pre-order processes every
	// descendant of a node before the node itself, so when b reduces
	// its parent, b's bag already reflects b's whole subtree.
	for i := len(order) - 1; i >= 0; i-- {
		if b := order[i]; b.parent != nil {
			if _, err := ex.reduce(b.parent, b); err != nil {
				return root, nil, err
			}
		}
	}
	for _, b := range order {
		if b.rel != nil {
			b.afterUp = b.rel.Len()
		}
	}
	// Phase 4: top-down sweep, parents before children.
	for _, b := range order {
		if b.parent != nil {
			if _, err := ex.reduce(b, b.parent); err != nil {
				return root, nil, err
			}
		}
	}
	for _, b := range order {
		if b.rel != nil {
			b.afterDown = b.rel.Len()
		}
	}
	// Phase 5: bag-by-bag evaluation up the tree.
	out, err := ex.eval(root)
	if err != nil {
		return root, nil, err
	}
	// The root's schema is set-equal to the target schema (Validate);
	// align the column order with the plan executors' final projection.
	if !sameVarsOrdered(out.Attrs(), t.Query.Free) {
		if out, err = ex.project(&ex.stats, out, t.Query.Free); err != nil {
			return root, nil, err
		}
	}
	return root, out, nil
}

func sameVarsOrdered(a []relation.Attr, b []cq.Var) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
// renders the sweep tree (explainYannakakis). Every run sweeps the join
// tree, which nothing writes, and builds its own bags, so one value serves
// concurrent requests.
func NewYannakakis(s *jointree.Structure) Fallback {
	return Fallback{
		Run: func(ctx context.Context, db cq.Database, opt Options) (*Result, error) {
			res, _, err := execYannakakis(ctx, s.Tree, db, opt)
			return res, err
		},
		Explain: func(db cq.Database, opt Options, analyze bool) (string, error) {
			return explainYannakakis(s.Tree, db, opt, analyze)
		},
	}
}

func execYannakakis(ctx context.Context, t *jointree.Tree, db cq.Database, opt Options) (*Result, *ybag, error) {
	var ex yexec
	ex.govern(ctx, db, opt)
	root, rel, err := ex.run(t)
	res, err := ex.finish(rel, err)
	return res, root, err
}
