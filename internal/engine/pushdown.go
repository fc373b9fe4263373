package engine

// Semijoin pushdown: the phase NewPipeline's Run and Explain run ahead of
// lowering when some sweep could remove a tuple (mayReduce), and
// ExecIterator never runs. It walks the
// plan, derives which scan pairs share an attribute that survives (is
// never projected away) from each scan to their common ancestor join, and
// runs relation.SemijoinFilter sweeps over zero-copy bound views of the
// base relations until a fixpoint — so build sides are pre-reduced before
// a single bucket is allocated. Lowering then reads the reduced views, and
// a join whose build input is itself a stream additionally pre-filters it
// with relation.StreamFilter probes against the probe side's reduced base
// relations (buildFilters).

import (
	"fmt"
	"sync/atomic"

	"projpush/internal/cq"
	"projpush/internal/plan"
	"projpush/internal/relation"
)

// maxReducePasses caps the pushdown fixpoint sweeps. A forward pass
// cascades reductions along the plan order, the backward pass carries
// them the other way (the spider shape needs it: an outer arm first
// reduces its inner relation, which then reduces the other arms through
// the center); further passes only fire when a prior pass still removed
// rows somewhere.
const maxReducePasses = 4

// scanCols is where one scan holds a variable, or a pair of variables: the
// stored relation it reads and their columns in it (b == a and cb == ca
// for a variable alone; no atom holds a variable twice).
type scanCols struct {
	a, b   cq.Var
	rel    *relation.Relation
	ca, cb int32
}

// sameValues reports whether two columns provably hold the same set of
// values: they are one column, or both are dense over equal ranges.
func sameValues(r *relation.Relation, i int32, o *relation.Relation, j int32) bool {
	if r == o && i == j {
		return true
	}
	rlo, rhi, rdense := r.DenseRange(int(i))
	olo, ohi, odense := o.DenseRange(int(j))
	return rdense && odense && rlo == olo && rhi == ohi
}

// firstSeen keeps, for mayReduce, the scanCols each variable and each pair
// of variables was first met in. It is an open-addressing index over an
// append-only slice rather than two Go maps because the rule runs ahead
// of every request: on a 200-scan plan the rule takes 33 µs with it and
// 109 µs with the maps, presized (BenchmarkPushdownSkipRule).
type firstSeen struct {
	slots []int32 // 1 + index into met; 0 = free
	met   []scanCols
}

// get returns what was first met under (c.a, c.b), which is c itself if
// nothing was.
func (f *firstSeen) get(c scanCols) *scanCols {
	mask := uint64(len(f.slots) - 1)
	h := uint64(c.a)*0x9E3779B97F4A7C15 ^ uint64(c.b)*0xC2B2AE3D27D4EB4F
	for i := (h ^ h>>29) & mask; ; i = (i + 1) & mask {
		if f.slots[i] == 0 {
			f.met = append(f.met, c)
			f.slots[i] = int32(len(f.met))
			return &f.met[len(f.met)-1]
		}
		if m := &f.met[f.slots[i]-1]; m.a == c.a && m.b == c.b {
			return m
		}
	}
}

// mayReduce reports whether some sweep of the pushdown phase over p could
// remove a tuple, from p's scans and the database alone — before collect,
// because binding views and building the alive maps is most of what the
// phase costs where it removes nothing. It answers no when every semijoin
// between two scans is provably the identity:
//
//   - every variable's scan columns hold the same value set (sameValues),
//     so a semijoin on one variable keeps every row; and
//   - two scans that share two or more variables read the same stored
//     relation with those variables in the same columns, so a semijoin on
//     several variables compares a projection of the relation with itself.
//
// Then the fixpoint is the input, and a build filter — a semijoin of a
// join result against a probe-side scan — can only drop rows the probe
// would not have matched: the run is ExecIterator's. The rule has no
// threshold and errs one way only: an unprovable case (a sparse column, a
// shifted range, an empty or unknown relation) answers yes and costs the
// phase's time, never an answer.
func (g *governor) mayReduce(p plan.Node) bool {
	scans, ok := appendScans(nil, p)
	if !ok {
		return true // an unknown node: lowering reports it
	}
	n := 0 // variables plus variable pairs, scan by scan
	for _, t := range scans {
		k := len(t.Atom.Args)
		n += k * (k + 1) / 2
	}
	size := 16
	for size < 2*n {
		size *= 2
	}
	seen := firstSeen{slots: make([]int32, size), met: make([]scanCols, 0, n)}
	for _, t := range scans {
		rel, err := g.resolve(&t.Atom)
		if err != nil {
			return true // collect reports it
		}
		for j, w := range t.Atom.Args {
			cw := int32(j)
			if m := seen.get(scanCols{w, w, rel, cw, cw}); !sameValues(m.rel, m.ca, rel, cw) {
				return true
			}
			for i, v := range t.Atom.Args[:j] {
				c := scanCols{v, w, rel, int32(i), cw}
				if w < v {
					c = scanCols{w, v, rel, cw, int32(i)}
				}
				if *seen.get(c) != c {
					return true
				}
			}
		}
	}
	return false
}

// appendScans appends n's scans to into, in plan order; ok is false if n
// holds a node that is none of the engine's three. It is plan.Atoms without
// the per-node Children slices and the atom copies, which on this path
// double the rule's cost.
func appendScans(into []*plan.Scan, n plan.Node) (scans []*plan.Scan, ok bool) {
	switch t := n.(type) {
	case *plan.Scan:
		return append(into, t), true
	case *plan.Project:
		return appendScans(into, t.Child)
	case *plan.Join:
		if into, ok = appendScans(into, t.Left); ok {
			return appendScans(into, t.Right)
		}
	}
	return into, false
}

// streamScanState is one base-relation occurrence tracked by the pushdown
// phase: a zero-copy bound view of the stored relation, reduced in
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

// pushdown is the phase's state: the scan views it reduces, the edges it
// reduces them along, and the alive-attribute maps lowering reads the
// build filters off.
type pushdown struct {
	ctx       *streamContext
	scans     []*streamScanState
	scanOf    map[*plan.Scan]int
	edges     []reduceEdge
	edgeOf    map[[2]int]int
	aliveAt   map[plan.Node]map[cq.Var][]int
	nextFresh relation.Attr // fresh attrs for restricted constrainer views
}

// runPushdown binds p's scans and reduces them to the fixpoint.
func runPushdown(ctx *streamContext, p plan.Node) (*pushdown, error) {
	pd := &pushdown{
		ctx:       ctx,
		scanOf:    make(map[*plan.Scan]int),
		edgeOf:    make(map[[2]int]int),
		aliveAt:   make(map[plan.Node]map[cq.Var][]int),
		nextFresh: -1,
	}
	if _, err := pd.collect(p); err != nil {
		return nil, err
	}
	return pd, pd.reduceAll()
}

// collect walks the plan bottom-up, binding scan views and building the
// alive-attribute map: for each node, which scans does each attribute of
// the node's output survive from? Project drops attributes, Join merges
// its children and — for every attribute alive on both sides — records a
// reduction edge between each pair of source scans.
func (pd *pushdown) collect(n plan.Node) (map[cq.Var][]int, error) {
	switch t := n.(type) {
	case *plan.Scan:
		view, err := pd.ctx.bind(&t.Atom)
		if err != nil {
			return nil, err
		}
		idx := len(pd.scans)
		pd.scans = append(pd.scans, &streamScanState{node: t, view: view})
		pd.scanOf[t] = idx
		alive := make(map[cq.Var][]int, len(t.Atom.Args))
		for _, a := range t.Atom.Args {
			alive[a] = []int{idx}
		}
		pd.aliveAt[n] = alive
		return alive, nil

	case *plan.Join:
		l, err := pd.collect(t.Left)
		if err != nil {
			return nil, err
		}
		r, err := pd.collect(t.Right)
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
					pd.addEdge(i, j, a)
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
		pd.aliveAt[n] = alive
		return alive, nil

	case *plan.Project:
		c, err := pd.collect(t.Child)
		if err != nil {
			return nil, err
		}
		alive := make(map[cq.Var][]int, len(t.Cols))
		for _, a := range t.Cols {
			if ls, ok := c[a]; ok {
				alive[a] = ls
			}
		}
		pd.aliveAt[n] = alive
		return alive, nil

	default:
		return nil, fmt.Errorf("engine: unknown plan node %T", n)
	}
}

func (pd *pushdown) addEdge(i, j int, a cq.Var) {
	if i == j {
		return
	}
	if i > j {
		i, j = j, i
	}
	key := [2]int{i, j}
	if k, ok := pd.edgeOf[key]; ok {
		for _, have := range pd.edges[k].attrs {
			if have == a {
				return
			}
		}
		pd.edges[k].attrs = append(pd.edges[k].attrs, a)
		return
	}
	pd.edgeOf[key] = len(pd.edges)
	pd.edges = append(pd.edges, reduceEdge{a: i, b: j, attrs: []cq.Var{a}, epochA: -1, epochB: -1})
}

// reduceOne reduces target's view by constrainer's on attrs, returning
// whether rows were removed. When the two views share more attributes
// than are sound for this edge, the constrainer's extra columns are
// renamed apart (zero-copy) so the kernel keys only on attrs.
func (pd *pushdown) reduceOne(target, constrainer *streamScanState, attrs []cq.Var) (bool, error) {
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
				m[a] = pd.nextFresh
				pd.nextFresh--
			}
		}
		ov = relation.Rename(ov, m)
	}
	var counter atomic.Int64
	out, removed, err := relation.SemijoinFilter(target.view, ov, pd.ctx.kernelLim(&counter))
	pd.ctx.notePeak(&counter)
	if err != nil {
		return false, err
	}
	if removed == 0 {
		return false, nil
	}
	target.view = out
	target.epoch++
	target.reduced += int64(removed)
	pd.ctx.stats.ReducedTuples += int64(removed)
	// After the first removal the view owns a private arena; charge its
	// footprint as live bytes (compactions shrink the charge again).
	return true, pd.ctx.hold(out.Bytes(), &target.charged, nil)
}

// reduceAll runs the pushdown sweeps to a fixpoint (bounded by
// maxReducePasses): forward along plan order, then backward, skipping
// edges whose endpoints have not changed since the edge last ran.
func (pd *pushdown) reduceAll() error {
	for pass := 0; pass < maxReducePasses; pass++ {
		changed := false
		for k := range pd.edges {
			i := k
			if pass%2 == 1 {
				i = len(pd.edges) - 1 - k
			}
			ed := &pd.edges[i]
			sa, sb := pd.scans[ed.a], pd.scans[ed.b]
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
			c1, err := pd.reduceOne(x, y, ed.attrs)
			if err != nil {
				return err
			}
			c2, err := pd.reduceOne(y, x, ed.attrs)
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

// buildFilters attaches StreamFilter specs to a join whose build side is a
// streamed subtree and stores the columns stored: for every join attribute
// alive at some probe-side scan, build rows are checked against that
// scan's reduced view. Bare (possibly projected) scan build sides are
// skipped — the sweeps already reduced those directly.
func (pd *pushdown) buildFilters(t *plan.Join, stored []cq.Var) []buildFilter {
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
	alive := pd.aliveAt[t.Left]
	var out []buildFilter
	for i, a := range stored {
		ls := alive[a]
		if len(ls) == 0 {
			continue
		}
		// One filter per probe-side scan, keyed on every stored column
		// alive there.
		state := pd.scans[ls[0]]
		k := 0
		for k < len(out) && out[k].state != state {
			k++
		}
		if k == len(out) {
			out = append(out, buildFilter{state: state})
		}
		out[k].attrs = append(out[k].attrs, a)
		out[k].pos = append(out[k].pos, i)
	}
	return out
}
