package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"projpush/internal/cq"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/jointree"
	"projpush/internal/relation"
)

// walkQuery draws an acyclic query: a random tree over 3–8 variables with
// one binary atom per edge, each over its own relation, now and then a
// second atom over another relation read the other way beside it (so a
// bag hosts two), and 0–3 free variables. A third of the queries take up
// to three free variables no atom joins to each other: that is what
// leaves the join tree's root hosting no atoms.
func walkQuery(rng *rand.Rand) *cq.Query {
	q := &cq.Query{}
	atom := func(args ...cq.Var) {
		q.Atoms = append(q.Atoms, cq.Atom{Rel: fmt.Sprintf("r%d", len(q.Atoms)), Args: args})
	}
	n := 3 + rng.Intn(6)
	parent := make([]int, n)
	for v := 1; v < n; v++ {
		parent[v] = rng.Intn(v)
		atom(cq.Var(parent[v]), cq.Var(v))
		if rng.Intn(5) == 0 {
			atom(cq.Var(v), cq.Var(parent[v]))
		}
	}
	vars := q.Vars()
	rng.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
	if rng.Intn(3) == 0 {
		apart := vars[:0]
	next:
		for _, v := range vars {
			for _, w := range apart {
				if parent[v] == int(w) || parent[w] == int(v) {
					continue next
				}
			}
			apart = append(apart, v)
		}
		q.Free = apart[:min(3, len(apart))]
		return q
	}
	q.Free = vars[:min(rng.Intn(4), len(vars))]
	return q
}

// walkDB gives every atom of q its own random relation over the values
// 0–4: two draws for the atoms sel hosts, the selective bag's, and 5–12
// for the rest, so that sel is nearly always the walk's seed.
func walkDB(rng *rand.Rand, q *cq.Query, sel []*cq.Atom) cq.Database {
	selective := map[string]bool{}
	for _, a := range sel {
		selective[a.Rel] = true
	}
	db := cq.Database{}
	for _, a := range q.Atoms {
		rows := 5 + rng.Intn(8)
		if selective[a.Rel] {
			rows = 2
		}
		r := relation.New([]relation.Attr{0, 1})
		for ; rows > 0; rows-- {
			r.Add(relation.Tuple{relation.Value(rng.Intn(5)), relation.Value(rng.Intn(5))})
		}
		db[a.Rel] = r
	}
	return db
}

// newTree is the bag tree of jt, unbound.
func newTree(jt *jointree.Tree) *ytree {
	t := &ytree{jt: jt}
	t.add(jt.Root, -1)
	return t
}

// hosted is the atoms bag i of tree hosts.
func hosted(tree *jointree.Tree, i int) []*cq.Atom {
	t := newTree(tree)
	return t.atoms[t.bags[i].lo:t.bags[i].hi]
}

// bagTreeJoin is the join the sweeps reduce toward, written for the
// backtracking oracle: one atom per bag over the unreduced join of the
// atoms it hosts (see unreduced), with a variable per (bag, attribute)
// that is shared only across a tree edge whose two bags both carry the
// attribute. On a join tree this is the query's own full join. Where the
// bag tree is not one, semijoins along its edges cannot see more than this
// join, so neither the sweeps nor the walk remove more than it does: a
// root hosting no atoms splits the tree into branches no semijoin crosses,
// and a variable that some bag on the path between two others does not
// carry goes unchecked between them. A filter on a hosted atom before its
// bag's join removes only tuples that no answer of this join extends, so
// it changes none of that.
// It returns one atom per bag in pre-order (the zero atom for a bag
// hosting no atoms), the database they read, and each bag's branch.
func bagTreeJoin(ex *yexec) ([]cq.Atom, cq.Database, []int) {
	n := len(ex.bags)
	atoms := make([]cq.Atom, n)
	branch := make([]int, n)
	db := cq.Database{}
	next := cq.Var(0)
	for i, b := range ex.bags {
		p := ex.t.bags[i].parent
		branch[i] = i
		if p >= 0 && ex.t.hosts(p) {
			branch[i] = branch[p]
		}
		if !ex.t.hosts(i) {
			continue
		}
		atoms[i].Rel = fmt.Sprintf("bag%d", i)
		db[atoms[i].Rel] = b.rel
		for _, a := range b.rel.Attrs() {
			v := next
			if p >= 0 && ex.t.hosts(p) && ex.bags[p].rel.HasAttr(a) { // pre-order: the parent's are set
				v = atoms[p].Args[ex.bags[p].rel.Pos(a)]
			} else {
				next++
			}
			atoms[i].Args = append(atoms[i].Args, v)
		}
	}
	return atoms, db, branch
}

// unreduced is a run over tree with every bag relation formed before any
// semijoin: the join of its hosted atoms' bound views. Its eval evaluates
// the tree unreduced.
func unreduced(t *testing.T, tree *jointree.Tree, db cq.Database) *yexec {
	t.Helper()
	ex := new(yexec)
	ex.govern(context.Background(), db, Options{})
	if err := ex.bind(reducer(tree)); err != nil {
		t.Fatal(err)
	}
	for i := range ex.bags {
		if _, err := ex.joinAtoms(i, nil); err != nil {
			t.Fatal(err)
		}
	}
	return ex
}

// reducer is the full reducer over tree.
func reducer(tree *jointree.Tree) *yannakakis {
	return &yannakakis{s: &jointree.Structure{Tree: tree}}
}

// reached reports whether the seed walk reduced bag i, whole or atom by
// atom.
func reached(ex *yexec, i int) bool {
	n := &ex.t.bags[i]
	for _, a := range ex.atoms[n.lo:n.hi] {
		if a.walked >= 0 {
			return true
		}
	}
	return ex.bags[i].walked >= 0
}

// checkFullReduction runs the full reducer over tree and checks what must
// hold whichever order its semijoins ran in: every bag ends holding
// exactly its tuples that extend to an answer of the bag tree's join
// (counted by the backtracking oracle), never fewer than extend to a full
// answer of the query, ReducedTuples is what the hosted atoms lost before
// their bag's join plus what the bags lost after it, and the answer is the
// oracle's. It returns the run and whether every bag's count was also the
// query's own.
func checkFullReduction(t *testing.T, name string, tree *jointree.Tree, db cq.Database) (*yexec, bool) {
	t.Helper()
	q := tree.Query
	res, ex, err := reducer(tree).exec(context.Background(), db, Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := EvalOracle(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rel.Equal(want) {
		t.Fatalf("%s: answer has %d rows, the oracle %d", name, res.Rel.Len(), want.Len())
	}

	// The bag relations again, unreduced: the run filtered its own, and
	// formed none for a lone bag (its join is fused with its projection).
	ux := unreduced(t, tree, db)
	bagAtoms, joinDB, branch := bagTreeJoin(ux)
	exact := true
	var lost int64
	for i, b := range ex.bags {
		if !ex.t.hosts(i) {
			continue
		}
		var reach []cq.Atom
		for j, a := range bagAtoms {
			if a.Rel != "" && branch[j] == branch[i] {
				reach = append(reach, a)
			}
		}
		extend, err := EvalOracle(&cq.Query{Atoms: reach, Free: bagAtoms[i].Args}, joinDB)
		if err != nil {
			t.Fatal(err)
		}
		var vars []cq.Var
		for _, a := range ux.bags[i].rel.Attrs() {
			vars = append(vars, cq.Var(a))
		}
		full, err := EvalOracle(&cq.Query{Atoms: q.Atoms, Free: vars}, db)
		if err != nil {
			t.Fatal(err)
		}
		if b.afterDown != extend.Len() || b.afterDown < full.Len() {
			t.Fatalf("%s: bag %s ends with ⋉↓%d of %d tuples; %d extend to an answer of the bag tree's join, %d to a full answer",
				name, varList(ex.t.bags[i].node.Working), b.afterDown, b.bound, extend.Len(), full.Len())
		}
		exact = exact && b.afterDown == full.Len()
		lost += int64(b.bound - b.afterDown)
		n := &ex.t.bags[i]
		for k := n.lo; k < n.hi; k++ {
			if w := ex.atoms[k].walked; w >= 0 {
				lost += int64(ex.t.views[k].Len() - w)
			}
		}
	}
	if res.Stats.ReducedTuples != lost {
		t.Fatalf("%s: ReducedTuples = %d, the atoms before their bags' joins and the bags after lost %d", name, res.Stats.ReducedTuples, lost)
	}
	return ex, exact
}

// TestYannakakisReducesFullyFromAnySeed holds the full reducer to the
// unique full reduction wherever the walk starts: seeded random acyclic
// queries with the selective relation at the root, at a leaf and at an
// interior bag, and the Figure 6–9 families over the 3-COLOR database.
func TestYannakakisReducesFullyFromAnySeed(t *testing.T) {
	rng := rand.New(rand.NewSource(2004))
	placed := map[string]int{}
	runs, exact, farWalks, atomlessRoots := 0, 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		q := walkQuery(rng)
		tree := mustAnalyze(t, q).Tree
		placements := map[string][]int{}
		for i, n := range newTree(tree).bags {
			switch {
			case n.parent < 0:
				if n.hi > n.lo {
					placements["root"] = append(placements["root"], i)
				} else {
					atomlessRoots++
				}
			case len(n.children) == 0:
				placements["leaf"] = append(placements["leaf"], i)
			default:
				placements["interior"] = append(placements["interior"], i)
			}
		}
		for _, at := range []string{"root", "leaf", "interior"} {
			bags := placements[at]
			if len(bags) == 0 {
				continue
			}
			placed[at]++
			name := fmt.Sprintf("trial %d, selective %s: %v free %v", trial, at, q.Atoms, q.Free)
			ex, full := checkFullReduction(t, name, tree, walkDB(rng, q, hosted(tree, bags[rng.Intn(len(bags))])))
			runs++
			if full {
				exact++
			}
			if walkedPastNeighbours(ex) {
				farWalks++
			}
		}
	}
	// The pool has to reach every placement, walks that go on past the
	// seed's neighbours and roots the walk may not cross, and mostly bag
	// trees whose join is the query's.
	t.Logf("%d runs: placements %v, %d reduced to the query's full join, %d walked past the seed's neighbours, %d atom-less roots",
		runs, placed, exact, farWalks, atomlessRoots)
	if placed["root"] < 100 || placed["leaf"] < 100 || placed["interior"] < 100 ||
		4*exact < 3*runs || farWalks < 100 || atomlessRoots < 10 {
		t.Error("the pool is lopsided")
	}

	db := instance.ColorDatabase(3)
	for _, f := range []struct {
		name string
		g    *graph.Graph
	}{
		{"fig6-augpath", graph.AugmentedPath(6)},
		{"fig7-ladder", graph.Ladder(5)},
		{"fig8-augladder", graph.AugmentedLadder(3)},
		{"fig9-augcircladder", graph.AugmentedCircularLadder(3)},
	} {
		for _, free := range [][]cq.Var{instance.BooleanFree(f.g), instance.ChooseFree(instance.EdgeVertices(f.g), 0.25, rng)} {
			q, err := instance.ColorQuery(f.g, free)
			if err != nil {
				t.Fatal(err)
			}
			tree := mustAnalyze(t, q).Tree
			if _, full := checkFullReduction(t, fmt.Sprintf("%s free %v", f.name, free), tree, db); !full {
				t.Errorf("%s free %v: a bag kept tuples that extend to no 3-coloring", f.name, free)
			}
		}
	}
}

// walkedPastNeighbours reports whether the walk reduced a bag that is not
// a neighbour of its seed.
func walkedPastNeighbours(ex *yexec) bool {
	seed := ex.t.seed
	for i, n := range ex.t.bags {
		if reached(ex, i) && n.parent != seed && ex.t.bags[seed].parent != i {
			return true
		}
	}
	return false
}

// TestYannakakisWalkStops pins the stop rule. Where no semijoin removes a
// tuple — the 3-COLOR edge relation is complete over the colors — the
// walk reduces the seed's neighbours and goes no further. And a root that
// hosts no atoms has no relation to carry a reduction: the walk ends
// there, and the answer is still the oracle's.
func TestYannakakisWalkStops(t *testing.T) {
	db := instance.ColorDatabase(3)
	for _, f := range []struct {
		name string
		g    *graph.Graph
	}{
		{"augpath", graph.AugmentedPath(8)},
		{"ladder", graph.Ladder(6)},
		{"augladder", graph.AugmentedLadder(5)},
	} {
		q, err := instance.ColorQuery(f.g, instance.BooleanFree(f.g))
		if err != nil {
			t.Fatal(err)
		}
		tree := mustAnalyze(t, q).Tree
		res, ex, err := reducer(tree).exec(context.Background(), db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want, err := EvalOracle(q, db); err != nil || !res.Rel.Equal(want) {
			t.Fatalf("%s: answer %v, the oracle %v (%v)", f.name, res.Rel, want, err)
		}
		seed := &ex.t.bags[ex.t.seed]
		neighbours := len(seed.children)
		if seed.parent >= 0 && ex.t.hosts(seed.parent) {
			neighbours++
		}
		if len(ex.bags) <= neighbours+1 {
			t.Fatalf("%s: %d bags, the seed has %d neighbours: too few to tell a walk that stops", f.name, len(ex.bags), neighbours)
		}
		walked := 0
		for i := range ex.bags {
			if reached(ex, i) {
				walked++
			}
		}
		if walked > neighbours {
			t.Errorf("%s: the walk reached %d bags, the seed has %d neighbours and nothing reduces", f.name, walked, neighbours)
		}
	}

	// r2's side of the root is cut off from a seed on r1's or r3's.
	q := &cq.Query{
		Atoms: []cq.Atom{
			{Rel: "r1", Args: []cq.Var{0, 1}}, {Rel: "r2", Args: []cq.Var{0, 2}},
			{Rel: "r3", Args: []cq.Var{1, 3}}, {Rel: "r4", Args: []cq.Var{3, 4}},
		},
		Free: []cq.Var{1, 2, 4},
	}
	tree := mustAnalyze(t, q).Tree
	rng := rand.New(rand.NewSource(7))
	for i, n := range newTree(tree).bags {
		if n.parent < 0 {
			if n.hi > n.lo {
				t.Fatalf("the root of %v free %v hosts %d atoms: the shape no longer has an atom-less root", q.Atoms, q.Free, n.hi-n.lo)
			}
			continue
		}
		ex, _ := checkFullReduction(t, fmt.Sprintf("atom-less root, selective bag %s", varList(n.node.Working)), tree, walkDB(rng, q, hosted(tree, i)))
		branch := func(b int) int {
			for ex.t.bags[b].parent != 0 {
				b = ex.t.bags[b].parent
			}
			return b
		}
		seedBranch := branch(ex.t.seed)
		for w := 1; w < len(ex.bags); w++ {
			if reached(ex, w) && branch(w) != seedBranch {
				t.Errorf("the walk crossed the atom-less root from %s to %s", varList(ex.t.bags[seedBranch].node.Working), varList(ex.t.bags[w].node.Working))
			}
		}
	}
}

// TestYannakakisJoinsBagsAfterTheWalk is the end-to-end benchmark's
// spider/x0,z1 in small: centre x0, arms a_i(x0,y_i) b_i(y_i,z_i), the
// selective b0 two bags from the bag that hosts a1 and b1. The walk has to
// reach that bag's atoms before they are joined, so its join is formed
// from a filtered a1: smaller than the unreduced join, and the run's peak
// below the peak of the same bag tree evaluated with every bag joined at
// bind and no semijoin.
func TestYannakakisJoinsBagsAfterTheWalk(t *testing.T) {
	q, db := selectiveSpider(2, 300, 60, 5)
	q.Free = []cq.Var{0, 4}
	tree := mustAnalyze(t, q).Tree
	ex, _ := checkFullReduction(t, "spider/x0,z1", tree, db)
	ux := unreduced(t, tree, db)
	bag := -1
	for i, n := range ex.t.bags {
		if n.hi-n.lo == 2 {
			bag = i
		}
	}
	if bag < 0 {
		t.Fatalf("no bag of %v free %v hosts two atoms", q.Atoms, q.Free)
	}
	n, b := &ex.t.bags[bag], &ex.bags[bag]
	shrunk := false
	for k := n.lo; k < n.hi; k++ {
		shrunk = shrunk || 0 <= ex.atoms[k].walked && ex.atoms[k].walked < ex.t.views[k].Len()
	}
	if !shrunk || b.bound >= ux.bags[bag].bound {
		t.Fatalf("bag %s: joined %d rows, %d unreduced; the walk filtered none of its atoms before the join", varList(n.node.Working), b.bound, ux.bags[bag].bound)
	}
	res, err := ExecYannakakisContext(context.Background(), q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ux.eval(0); err != nil {
		t.Fatal(err)
	}
	if res.Stats.PeakBytes >= ux.stats.PeakBytes {
		t.Fatalf("peak %d bytes, the unreduced run's %d", res.Stats.PeakBytes, ux.stats.PeakBytes)
	}
	explain, err := NewYannakakis(mustAnalyze(t, q)).Explain(db, Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	for k := n.lo; k < n.hi; k++ {
		want := fmt.Sprintf("%s[%d]", ex.t.atoms[k], ex.t.views[k].Len())
		if w := ex.atoms[k].walked; w >= 0 {
			want = fmt.Sprintf("%s[%d ⋉→%d]", ex.t.atoms[k], ex.t.views[k].Len(), w)
		}
		if !strings.Contains(explain, want) {
			t.Fatalf("EXPLAIN ANALYZE lacks %q:\n%s", want, explain)
		}
	}
	if want := fmt.Sprintf("rows=%d ", b.bound); !strings.Contains(explain, want) {
		t.Fatalf("EXPLAIN ANALYZE lacks the joined bag's %q:\n%s", want, explain)
	}
	sj := ex.semijoins
	if want := fmt.Sprintf("semijoins: ⋉→ ran=%d skipped=%d  ⋉↑ ran=%d skipped=%d  ⋉↓ ran=%d skipped=%d\n",
		sj[0][0], sj[0][1], sj[1][0], sj[1][1], sj[2][0], sj[2][1]); !strings.Contains(explain, want) {
		t.Fatalf("EXPLAIN ANALYZE lacks the run's %q:\n%s", want, explain)
	}
}

// TestYannakakisNothingReducesNothingChanges pins what a run materializes
// where no semijoin shrinks an atom before its bag's join: Figures 6–9
// over the complete 3-COLOR edge relation, Boolean and with a quarter of
// the variables free, and a one-bag join of three relations of different
// sizes with every variable free. The counts are what joining every bag at
// bind gives: joining later must change none of them, and joining in any
// order but hosting order changes the last (each other connected order
// materializes 2 976 or 3 209 tuples). Bytes are arenas alone: a join's
// output builds no dedup table, and a join that reads a stored view's
// sorted index allocates its arena at the output's exact size. Phase 5
// runs a join onto a child result whose columns all lie in the bag's as a
// semijoin, which on these join trees removes nothing and writes no arena,
// and a join that is its bag's last step before the projection as one
// kernel that writes no join arena either: Figure 6 with free variables
// and both Figure 7 queries each fuse a join of 36, 36 and 24 rows.
func TestYannakakisNothingReducesNothingChanges(t *testing.T) {
	type counts struct{ materialized, bytes, peak int64 }
	rng := rand.New(rand.NewSource(2004))
	color := instance.ColorDatabase(3)
	want := []counts{
		{33, 4928, 4928}, {129, 7648, 7648}, // Figure 6: Boolean, free [3 6 10]
		{117, 6096, 6096}, {126, 5792, 5792}, // Figure 7: Boolean, free [2 3 7]
		{93, 5824, 5824}, {225, 9632, 9632}, // Figure 8: Boolean, free [0 2 11]
		{189, 8416, 8416}, {255, 11936, 11936}, // Figure 9: Boolean, free [3 4 7]
		{1950, 28436, 28436}, // the one-bag join
	}
	check := func(name string, q *cq.Query, db cq.Database, want counts) {
		t.Helper()
		res, err := ExecYannakakisContext(context.Background(), q, db, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := (counts{res.Stats.MaterializedTuples, res.Stats.Bytes, res.Stats.PeakBytes}); got != want {
			t.Errorf("%s: materialized, bytes, peak = %v, want %v", name, got, want)
		}
	}
	i := 0
	for _, g := range []*graph.Graph{graph.AugmentedPath(6), graph.Ladder(5), graph.AugmentedLadder(3), graph.AugmentedCircularLadder(3)} {
		for _, free := range [][]cq.Var{instance.BooleanFree(g), instance.ChooseFree(instance.EdgeVertices(g), 0.25, rng)} {
			q, err := instance.ColorQuery(g, free)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("Figure %d free %v", 6+i/2, free), q, color, want[i])
			i++
		}
	}
	wide := &cq.Query{
		Atoms: []cq.Atom{{Rel: "r1", Args: []cq.Var{0, 1}}, {Rel: "r2", Args: []cq.Var{1, 2}}, {Rel: "r3", Args: []cq.Var{2, 3}}},
		Free:  []cq.Var{0, 1, 2, 3},
	}
	db := cq.Database{"r1": randomRel(rng, 90, 30), "r2": randomRel(rng, 300, 30), "r3": randomRel(rng, 60, 30)}
	check("r1(x0,x1) r2(x1,x2) r3(x2,x3)", wide, db, want[i])
}

// referenceRun is the full reducer with nothing skipped, kept here as the
// reference the executor's skips are held to: every semijoin of the walk
// and the sweeps runs, and phase 5 joins every child result. It returns
// the run, its answer, and how many phase-5 joins onto a child result
// whose columns all lie in the relation so far dropped a tuple.
func referenceRun(t *testing.T, tree *jointree.Tree, db cq.Database) (*yexec, *relation.Relation, int) {
	t.Helper()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	ex := new(yexec)
	ex.govern(context.Background(), db, Options{})
	must(ex.bind(reducer(tree)))
	reduce := func(r, s int) int {
		if !ex.t.hosts(r) || !ex.t.hosts(s) {
			return 0
		}
		_, err := ex.joinAtoms(s, nil)
		must(err)
		if ex.bags[r].rel != nil {
			removed, err := ex.filter(&ex.bags[r].rel, ex.bags[s].rel)
			must(err)
			return removed
		}
		removed, n := 0, ex.t.bags[r]
		for k := n.lo; k < n.hi; k++ {
			if a := &ex.atoms[k]; len(relation.SharedAttrs(a.view, ex.bags[s].rel)) > 0 {
				lost, err := ex.filter(&a.view, ex.bags[s].rel)
				must(err)
				a.walked, removed = a.view.Len(), removed+lost
			}
		}
		return removed
	}
	var walk func(b, from int)
	walk = func(b, from int) {
		n := ex.t.bags[b]
		for _, next := range append([]int{n.parent}, n.children...) {
			if next == from || !ex.t.hosts(next) {
				continue
			}
			removed := reduce(next, b)
			if r := ex.bags[next].rel; r != nil {
				ex.bags[next].walked = r.Len()
			}
			if removed > 0 {
				walk(next, b)
			}
		}
	}
	walk(ex.t.seed, -1)
	for i := range ex.bags {
		_, err := ex.joinAtoms(i, nil)
		must(err)
	}
	for i := len(ex.bags) - 1; i > 0; i-- {
		reduce(ex.t.bags[i].parent, i)
	}
	for i := range ex.bags {
		if r := ex.bags[i].rel; r != nil {
			ex.bags[i].afterUp = r.Len()
		}
	}
	for i := 1; i < len(ex.bags); i++ {
		reduce(i, ex.t.bags[i].parent)
	}
	for i := range ex.bags {
		if r := ex.bags[i].rel; r != nil {
			ex.bags[i].afterDown = r.Len()
		}
	}
	dropped := 0
	var eval func(b int) *relation.Relation
	eval = func(b int) *relation.Relation {
		cur := ex.bags[b].rel
		for _, c := range ex.t.bags[b].children {
			cr := eval(c)
			if cur == nil {
				cur = cr
				continue
			}
			out, _, err := ex.join(&ex.stats, cur, cr, nil)
			must(err)
			if len(relation.SharedAttrs(cr, cur)) == cr.Arity() && out.Len() < cur.Len() {
				dropped++
			}
			cur = out
		}
		var err error
		if n := ex.t.bags[b].node; len(n.Projected) != cur.Arity() {
			cur, err = ex.project(&ex.stats, cur, n.Projected)
			must(err)
		}
		ex.bags[b].out = cur.Len()
		return cur
	}
	out := eval(0)
	if q := tree.Query; !slices.Equal(out.Attrs(), q.Free) {
		var err error
		out, err = ex.project(&ex.stats, out, q.Free)
		must(err)
	}
	return ex, out, dropped
}

// denseCyclic draws a query over 4–7 variables with one binary atom per
// random edge, each over its own relation dense in a domain of 2–4
// values, and 0–3 free variables: cyclic queries whose bag trees are no
// join tree, where phase 5 removes tuples and what it removes reaches
// the bags above.
func denseCyclic(rng *rand.Rand) (*cq.Query, cq.Database) {
	n, dom, q, db := 4+rng.Intn(4), 2+rng.Intn(3), &cq.Query{}, cq.Database{}
	for len(q.Atoms) < n+rng.Intn(n) {
		if u, v := cq.Var(rng.Intn(n)), cq.Var(rng.Intn(n)); u != v {
			r := relation.New([]relation.Attr{0, 1})
			for rows := 2 + rng.Intn(dom*dom); rows > 0; rows-- {
				r.Add(relation.Tuple{relation.Value(rng.Intn(dom)), relation.Value(rng.Intn(dom))})
			}
			db[fmt.Sprintf("r%d", len(q.Atoms))] = r
			q.Atoms = append(q.Atoms, cq.Atom{Rel: fmt.Sprintf("r%d", len(q.Atoms)), Args: []cq.Var{u, v}})
		}
	}
	vars := q.Vars()
	rng.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
	q.Free = vars[:rng.Intn(min(4, len(vars)))]
	return q, db
}

// TestYannakakisSkipsOnlyEmptySemijoins holds the executor to the
// reference sweep: over TestYannakakisReducesFullyFromAnySeed's random
// acyclic pool, random cyclic queries over dense relations (denseCyclic),
// and Figures 6–9 on 3-COLOR, Boolean and a quarter free, the semijoins
// the skip rule leaves out, the phase-5 joins run as semijoins and the
// phase-5 semijoins skipped change no answer, no ReducedTuples, Tuples,
// MaxRows or MaxArity, and no per-phase count of any bag or atom, and the
// answers are the oracle's. The pool has to skip semijoins, and to reach
// bag trees that are no join tree, where a phase-5 semijoin removes the
// tuples the join drops.
func TestYannakakisSkipsOnlyEmptySemijoins(t *testing.T) {
	runs, skipped, dropping, fused := 0, 0, 0, 0
	check := func(name string, tree *jointree.Tree, db cq.Database) {
		t.Helper()
		res, ex, err := reducer(tree).exec(context.Background(), db, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, want, dropped := referenceRun(t, tree, db)
		oracle, err := EvalOracle(tree.Query, db)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Rel.Equal(want) || !want.Equal(oracle) || res.Stats.ReducedTuples != ref.stats.ReducedTuples {
			t.Fatalf("%s: %d rows and %d reduced, the reference sweep %d rows and %d reduced, the oracle %d rows",
				name, res.Rel.Len(), res.Stats.ReducedTuples, want.Len(), ref.stats.ReducedTuples, oracle.Len())
		}
		if st, rs := res.Stats, ref.stats; st.Tuples != rs.Tuples || st.MaxRows != rs.MaxRows || st.MaxArity != rs.MaxArity {
			t.Fatalf("%s: tuples, max rows and max arity %d %d %d, the reference sweep's %d %d %d",
				name, st.Tuples, st.MaxRows, st.MaxArity, rs.Tuples, rs.MaxRows, rs.MaxArity)
		}
		if st, rs := res.Stats, ref.stats; st.PeakBytes > rs.PeakBytes || st.MaterializedTuples > rs.MaterializedTuples {
			t.Fatalf("%s: peak %d bytes and %d tuples materialized, the reference sweep's %d and %d",
				name, st.PeakBytes, st.MaterializedTuples, rs.PeakBytes, rs.MaterializedTuples)
		}
		if res.Stats.MaterializedTuples < ref.stats.MaterializedTuples {
			fused++
		}
		for i, b := range ex.bags {
			r := ref.bags[i]
			if [5]int{b.bound, b.walked, b.afterUp, b.afterDown, b.out} != [5]int{r.bound, r.walked, r.afterUp, r.afterDown, r.out} {
				t.Fatalf("%s: bag %s rows/⋉→/⋉↑/⋉↓/out %d/%d/%d/%d/%d, the reference sweep's %d/%d/%d/%d/%d", name,
					varList(ex.t.bags[i].node.Working), b.bound, b.walked, b.afterUp, b.afterDown, b.out, r.bound, r.walked, r.afterUp, r.afterDown, r.out)
			}
		}
		for k, a := range ex.atoms {
			if a.walked != ref.atoms[k].walked {
				t.Fatalf("%s: atom %s ⋉→%d, the reference sweep's %d", name, ex.t.atoms[k], a.walked, ref.atoms[k].walked)
			}
		}
		runs++
		for _, p := range ex.semijoins {
			skipped += p[1]
		}
		if dropped > 0 {
			dropping++
		}
	}
	rng := rand.New(rand.NewSource(2004))
	for trial := 0; trial < 300; trial++ {
		q := walkQuery(rng)
		tree := mustAnalyze(t, q).Tree
		for i := range newTree(tree).bags {
			check(fmt.Sprintf("trial %d, selective bag %d: %v free %v", trial, i, q.Atoms, q.Free), tree, walkDB(rng, q, hosted(tree, i)))
		}
	}
	for trial := 0; trial < 300; trial++ {
		q, db := denseCyclic(rng)
		check(fmt.Sprintf("cyclic trial %d: %v free %v", trial, q.Atoms, q.Free), mustAnalyze(t, q).Tree, db)
	}
	color := instance.ColorDatabase(3)
	for _, g := range []*graph.Graph{graph.AugmentedPath(6), graph.Ladder(5), graph.AugmentedLadder(3), graph.AugmentedCircularLadder(3)} {
		for _, free := range [][]cq.Var{instance.BooleanFree(g), instance.ChooseFree(instance.EdgeVertices(g), 0.25, rng)} {
			q, err := instance.ColorQuery(g, free)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("3-COLOR %v free %v", q.Atoms, free), mustAnalyze(t, q).Tree, color)
		}
	}
	shapes, wide := wideAnswer()
	for _, sh := range shapes {
		check(sh.name, mustAnalyze(t, sh.q).Tree, wide)
	}
	t.Logf("%d runs: %d semijoins skipped, %d runs whose phase 5 dropped tuples, %d that fused a join with a projection", runs, skipped, dropping, fused)
	if skipped == 0 || dropping == 0 || fused == 0 {
		t.Error("the pool neither skips a semijoin, nor reaches a phase 5 that drops tuples, nor fuses a join")
	}
}

// wideAnswer is the wide-answer workload of bench/: its five queries over
// the relations of its database that they read, drawn as bench's
// generateDB draws them (one stream of seed 2: r0 of 10 rows and r1–r7 of
// 6 000 over 4 000 values, then a_i and b_i of 5 000 over 2 000, b0 of 8),
// without its relabelling, which changes no count.
func wideAnswer() ([]struct {
	name string
	q    *cq.Query
}, cq.Database) {
	shape, db := rand.New(rand.NewSource(2)), cq.Database{}
	rows := func(i, n, head int) int {
		if i == 0 {
			return head
		}
		return n
	}
	for i := 0; i < 8; i++ {
		db[fmt.Sprintf("r%d", i)] = randomRel(shape, rows(i, 6000, 10), 4000)
	}
	for i := 0; i < 3; i++ {
		db[fmt.Sprintf("a%d", i)] = randomRel(shape, 5000, 2000)
		db[fmt.Sprintf("b%d", i)] = randomRel(shape, rows(i, 5000, 8), 2000)
	}
	query := func(free []cq.Var, atoms ...cq.Atom) *cq.Query { return &cq.Query{Atoms: atoms, Free: free} }
	atom := func(rel string, x, y cq.Var) cq.Atom { return cq.Atom{Rel: rel, Args: []cq.Var{x, y}} }
	return []struct {
		name string
		q    *cq.Query
	}{
		{"r1r2/x,y,z", query([]cq.Var{0, 1, 2}, atom("r1", 0, 1), atom("r2", 1, 2))},
		{"r1r2/x,z", query([]cq.Var{0, 2}, atom("r1", 0, 1), atom("r2", 1, 2))},
		{"r1r2r3/x,y,z,w", query([]cq.Var{0, 1, 2, 3}, atom("r1", 0, 1), atom("r2", 1, 2), atom("r3", 2, 3))},
		{"a0a1/x,y,z", query([]cq.Var{0, 1, 2}, atom("a0", 0, 1), atom("a1", 0, 2))},
		{"a2b2/x,y,z", query([]cq.Var{0, 1, 2}, atom("a2", 0, 1), atom("b2", 1, 2))},
	}, db
}

// TestExplainYannakakisFusedBag pins wide-answer's r1r2/x,z, a one-bag
// tree: the lone bag is formed in phase 5, its join of 8 961 rows fused
// with its projection onto 8 959, so the run materializes the projection
// alone where the reference sweep writes the join too, and EXPLAIN
// ANALYZE reads the join's rows in every phase as before.
func TestExplainYannakakisFusedBag(t *testing.T) {
	shapes, db := wideAnswer()
	q := shapes[1].q
	explain, err := NewYannakakis(mustAnalyze(t, q)).Explain(db, Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := "bag {x0,x1,x2} → π{x0,x2}  r1(x0,x1)[5999]  r2(x1,x2)[5998]  rows=8961 ⋉↑8961 ⋉↓8961 out=8959\n"; !strings.Contains(explain, want) {
		t.Errorf("EXPLAIN ANALYZE lacks %q:\n%s", want, explain)
	}
	res, err := ExecYannakakisContext(context.Background(), q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, _ := referenceRun(t, mustAnalyze(t, q).Tree, db)
	if got, was := res.Stats.MaterializedTuples, ref.stats.MaterializedTuples; got != 8959 || was != 17920 {
		t.Errorf("materialized %d tuples, the reference sweep %d: want 8 959 and 17 920", got, was)
	}
}

// TestExplainYannakakisSkips pins the skip rule through EXPLAIN ANALYZE on
// a chain of eight relations with a selective head, which the walk
// crosses end to end: rooted at the head (x0,x1 free) the walk runs
// top-down and the top-down sweep is skipped whole; rooted at the far end
// (x8 free) the walk runs bottom-up and the bottom-up sweep is. Either way
// 14 semijoins run and 7 are skipped, of the 21 a sweep without the rule
// runs.
func TestExplainYannakakisSkips(t *testing.T) {
	q, db := selectiveChain(8, 300, 200, 3)
	for _, c := range []struct {
		free []cq.Var
		want string
	}{
		{[]cq.Var{0, 1}, "semijoins: ⋉→ ran=7 skipped=0  ⋉↑ ran=7 skipped=0  ⋉↓ ran=0 skipped=7\n"},
		{[]cq.Var{8}, "semijoins: ⋉→ ran=7 skipped=0  ⋉↑ ran=0 skipped=7  ⋉↓ ran=7 skipped=0\n"},
	} {
		q.Free = c.free
		explain, err := NewYannakakis(mustAnalyze(t, q)).Explain(db, Options{}, true)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(explain, c.want) {
			t.Errorf("free %v: EXPLAIN ANALYZE lacks %q:\n%s", c.free, c.want, explain)
		}
	}
}

// TestYannakakisSharedAcrossGoroutines runs one full reducer from many
// goroutines at once, each run against a fresh reducer's answer and
// counts, and checks they all read the one held tree. An answer that is a
// held view (a one-atom query) is each caller's own. An insert into a
// relation the held tree bound makes the next run bind afresh.
func TestYannakakisSharedAcrossGoroutines(t *testing.T) {
	spider, db := selectiveSpider(3, 200, 40, 9)
	spider.Free = []cq.Var{0, 4}
	single := &cq.Query{Atoms: []cq.Atom{{Rel: "a1", Args: []cq.Var{0, 1}}}, Free: []cq.Var{0, 1}}
	for _, q := range []*cq.Query{spider, single} {
		want, err := ExecYannakakisContext(context.Background(), q, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		y := &yannakakis{s: mustAnalyze(t, q)}
		if _, _, err := y.exec(context.Background(), db, Options{}); err != nil { // binds the tree the runs share
			t.Fatal(err)
		}
		const runs = 8
		results := make([]*Result, runs)
		execs := make([]*yexec, runs)
		var wg sync.WaitGroup
		for g := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var err error
				if results[g], execs[g], err = y.exec(context.Background(), db, Options{}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for g, res := range results {
			if !res.Rel.Equal(want.Rel) || res.Stats.ReducedTuples != want.Stats.ReducedTuples ||
				res.Stats.MaterializedTuples != want.Stats.MaterializedTuples || res.Stats.Tuples != want.Stats.Tuples {
				t.Errorf("%v: run %d: %d rows, stats %+v; a fresh run's %d rows, %+v", q.Atoms, g, res.Rel.Len(), res.Stats, want.Rel.Len(), want.Stats)
			}
			if execs[g].t != y.held.Load() {
				t.Errorf("%v: run %d read a tree of its own", q.Atoms, g)
			}
			if slices.Contains(y.held.Load().views, res.Rel) {
				t.Errorf("%v: run %d answered with the held view itself", q.Atoms, g)
			}
		}
	}

	y := &yannakakis{s: mustAnalyze(t, spider)}
	if _, _, err := y.exec(context.Background(), db, Options{}); err != nil {
		t.Fatal(err)
	}
	held := y.held.Load()
	for v := relation.Value(0); v < 40; v++ {
		db["b0"].Add(relation.Tuple{v, v}) // the selective arm, widened in place
	}
	res, ex, err := y.exec(context.Background(), db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := EvalOracle(spider, db)
	if err != nil {
		t.Fatal(err)
	}
	if ex.t == held || !res.Rel.Equal(want) {
		t.Errorf("after an insert: the run read the old tree (%v), %d rows against the oracle's %d", ex.t == held, res.Rel.Len(), want.Len())
	}
}

// TestYannakakisWarmRunAllocs pins what a warm run allocates, where the
// held tree leaves only the run's own state and the kernels' outputs: on
// the selective chain and on augpath-20 over 3-COLOR.
func TestYannakakisWarmRunAllocs(t *testing.T) {
	chain, chainDB := selectiveChain(8, 300, 200, 3)
	g := graph.AugmentedPath(20)
	augpath, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		q    *cq.Query
		db   cq.Database
		want float64
	}{
		{"chain", chain, chainDB, 163},
		{"augpath-20", augpath, instance.ColorDatabase(3), 581},
	} {
		f := NewYannakakis(mustAnalyze(t, c.q))
		run := func() {
			if _, err := f.Run(context.Background(), c.db, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if got := testing.AllocsPerRun(20, run); got > c.want {
			t.Errorf("%s: a warm run allocates %.0f times, want at most %.0f", c.name, got, c.want)
		}
	}
}
