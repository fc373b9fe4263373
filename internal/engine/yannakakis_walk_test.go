package engine

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
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
// 0–4: two draws for the atoms hosted at sel, the selective bag, and 5–12
// for the rest, so that sel is nearly always the walk's seed.
func walkDB(rng *rand.Rand, q *cq.Query, sel *ybag) cq.Database {
	selective := map[string]bool{}
	for _, a := range sel.atoms {
		selective[a.atom.Rel] = true
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
// It returns one atom per bag in order (the zero atom for a bag hosting no
// atoms), the database they read, and each bag's branch.
func bagTreeJoin(order []*ybag) ([]cq.Atom, cq.Database, []int) {
	index := make(map[*ybag]int, len(order))
	atoms := make([]cq.Atom, len(order))
	branch := make([]int, len(order))
	db := cq.Database{}
	next := cq.Var(0)
	for i, b := range order {
		index[b] = i
		p := b.parent
		branch[i] = i
		if p != nil && len(p.atoms) > 0 {
			branch[i] = branch[index[p]]
		}
		if len(b.atoms) == 0 {
			continue
		}
		atoms[i].Rel = fmt.Sprintf("bag%d", i)
		db[atoms[i].Rel] = b.rel
		for _, a := range b.rel.Attrs() {
			v := next
			if p != nil && len(p.atoms) > 0 && p.rel.HasAttr(a) { // pre-order: the parent's are set
				v = atoms[index[p]].Args[p.rel.Pos(a)]
			} else {
				next++
			}
			atoms[i].Args = append(atoms[i].Args, v)
		}
	}
	return atoms, db, branch
}

// unreduced is the bag tree of tree with every bag relation formed before
// any semijoin: the join of its hosted atoms' bound views. The executor
// that formed them is returned with it, to evaluate the tree unreduced.
func unreduced(t *testing.T, tree *jointree.Tree, db cq.Database) (*yexec, []*ybag) {
	t.Helper()
	ex := new(yexec)
	ex.govern(context.Background(), db, Options{})
	order := preorder(buildBags(tree.Root, nil), nil)
	for _, b := range order {
		if err := ex.bind(b); err != nil {
			t.Fatal(err)
		}
		if err := ex.joinAtoms(b); err != nil {
			t.Fatal(err)
		}
	}
	return ex, order
}

// reached reports whether the seed walk reduced b, whole or atom by atom.
func reached(b *ybag) bool {
	for _, a := range b.atoms {
		if a.walked >= 0 {
			return true
		}
	}
	return b.walked >= 0
}

// checkFullReduction runs the full reducer over tree and checks what must
// hold whichever order its semijoins ran in: every bag ends holding
// exactly its tuples that extend to an answer of the bag tree's join
// (counted by the backtracking oracle), never fewer than extend to a full
// answer of the query, ReducedTuples is what the hosted atoms lost before
// their bag's join plus what the bags lost after it, and the answer is the
// oracle's. It returns the bag tree of the run and whether every bag's
// count was also the query's own.
func checkFullReduction(t *testing.T, name string, tree *jointree.Tree, db cq.Database) (*ybag, bool) {
	t.Helper()
	q := tree.Query
	res, root, err := execYannakakis(context.Background(), tree, db, Options{})
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

	// The bag relations again, unreduced: the run filtered its own.
	_, bags := unreduced(t, tree, db)
	bagAtoms, joinDB, branch := bagTreeJoin(bags)
	exact := true
	var lost int64
	for i, b := range preorder(root, nil) {
		if len(b.atoms) == 0 {
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
		for _, a := range b.rel.Attrs() {
			vars = append(vars, cq.Var(a))
		}
		full, err := EvalOracle(&cq.Query{Atoms: q.Atoms, Free: vars}, db)
		if err != nil {
			t.Fatal(err)
		}
		if b.afterDown != extend.Len() || b.afterDown < full.Len() {
			t.Fatalf("%s: bag %s ends with ⋉↓%d of %d tuples; %d extend to an answer of the bag tree's join, %d to a full answer",
				name, varList(b.node.Working), b.afterDown, b.bound, extend.Len(), full.Len())
		}
		exact = exact && b.afterDown == full.Len()
		lost += int64(b.bound - b.afterDown)
		for _, a := range b.atoms {
			if a.walked >= 0 {
				lost += int64(a.rows - a.walked)
			}
		}
	}
	if res.Stats.ReducedTuples != lost {
		t.Fatalf("%s: ReducedTuples = %d, the atoms before their bags' joins and the bags after lost %d", name, res.Stats.ReducedTuples, lost)
	}
	return root, exact
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
		placements := map[string][]*ybag{}
		for _, b := range preorder(buildBags(tree.Root, nil), nil) {
			switch {
			case b.parent == nil:
				if len(b.atoms) > 0 {
					placements["root"] = append(placements["root"], b)
				} else {
					atomlessRoots++
				}
			case len(b.children) == 0:
				placements["leaf"] = append(placements["leaf"], b)
			default:
				placements["interior"] = append(placements["interior"], b)
			}
		}
		for _, at := range []string{"root", "leaf", "interior"} {
			bags := placements[at]
			if len(bags) == 0 {
				continue
			}
			placed[at]++
			name := fmt.Sprintf("trial %d, selective %s: %v free %v", trial, at, q.Atoms, q.Free)
			root, full := checkFullReduction(t, name, tree, walkDB(rng, q, bags[rng.Intn(len(bags))]))
			runs++
			if full {
				exact++
			}
			if walkedPastNeighbours(preorder(root, nil)) {
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
func walkedPastNeighbours(order []*ybag) bool {
	seed := seedBag(order)
	for _, b := range order {
		if reached(b) && b.parent != seed && seed.parent != b {
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
		res, root, err := execYannakakis(context.Background(), tree, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want, err := EvalOracle(q, db); err != nil || !res.Rel.Equal(want) {
			t.Fatalf("%s: answer %v, the oracle %v (%v)", f.name, res.Rel, want, err)
		}
		order := preorder(root, nil)
		seed := seedBag(order)
		neighbours := len(seed.children)
		if seed.parent != nil && len(seed.parent.atoms) > 0 {
			neighbours++
		}
		if len(order) <= neighbours+1 {
			t.Fatalf("%s: %d bags, the seed has %d neighbours: too few to tell a walk that stops", f.name, len(order), neighbours)
		}
		walked := 0
		for _, b := range order {
			if reached(b) {
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
	for _, b := range preorder(buildBags(tree.Root, nil), nil) {
		if b.parent == nil {
			if len(b.atoms) > 0 {
				t.Fatalf("the root of %v free %v hosts %d atoms: the shape no longer has an atom-less root", q.Atoms, q.Free, len(b.atoms))
			}
			continue
		}
		root, _ := checkFullReduction(t, fmt.Sprintf("atom-less root, selective bag %s", varList(b.node.Working)), tree, walkDB(rng, q, b))
		order := preorder(root, nil)
		branch := func(b *ybag) *ybag {
			for b.parent != root {
				b = b.parent
			}
			return b
		}
		seedBranch := branch(seedBag(order))
		for _, w := range order[1:] {
			if reached(w) && branch(w) != seedBranch {
				t.Errorf("the walk crossed the atom-less root from %s to %s", varList(seedBranch.node.Working), varList(w.node.Working))
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
	root, _ := checkFullReduction(t, "spider/x0,z1", tree, db)
	ux, ref := unreduced(t, tree, db)
	var bag, whole *ybag
	for i, b := range preorder(root, nil) {
		if len(b.atoms) == 2 {
			bag, whole = b, ref[i]
		}
	}
	if bag == nil {
		t.Fatalf("no bag of %v free %v hosts two atoms", q.Atoms, q.Free)
	}
	shrunk := false
	for _, a := range bag.atoms {
		shrunk = shrunk || 0 <= a.walked && a.walked < a.rows
	}
	if !shrunk || bag.bound >= whole.bound {
		t.Fatalf("bag %s: joined %d rows, %d unreduced; the walk filtered none of its atoms before the join", varList(bag.node.Working), bag.bound, whole.bound)
	}
	res, err := ExecYannakakisContext(context.Background(), q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ux.eval(ref[0]); err != nil {
		t.Fatal(err)
	}
	if res.Stats.PeakBytes >= ux.stats.PeakBytes {
		t.Fatalf("peak %d bytes, the unreduced run's %d", res.Stats.PeakBytes, ux.stats.PeakBytes)
	}
	explain, err := NewYannakakis(mustAnalyze(t, q)).Explain(db, Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range bag.atoms {
		want := fmt.Sprintf("%s[%d]", a.atom, a.rows)
		if a.walked >= 0 {
			want = fmt.Sprintf("%s[%d ⋉→%d]", a.atom, a.rows, a.walked)
		}
		if !strings.Contains(explain, want) {
			t.Fatalf("EXPLAIN ANALYZE lacks %q:\n%s", want, explain)
		}
	}
	if want := fmt.Sprintf("rows=%d ", bag.bound); !strings.Contains(explain, want) {
		t.Fatalf("EXPLAIN ANALYZE lacks the joined bag's %q:\n%s", want, explain)
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
// sorted index allocates its arena at the output's exact size.
func TestYannakakisNothingReducesNothingChanges(t *testing.T) {
	type counts struct{ materialized, bytes, peak int64 }
	rng := rand.New(rand.NewSource(2004))
	color := instance.ColorDatabase(3)
	want := []counts{
		{93, 7728, 7728}, {228, 11032, 11032}, // Figure 6: Boolean, free [3 6 10]
		{201, 9600, 9600}, {198, 9152, 9152}, // Figure 7: Boolean, free [2 3 7]
		{189, 11968, 11968}, {429, 16288, 16288}, // Figure 8: Boolean, free [0 2 11]
		{273, 17120, 17120}, {339, 18080, 18080}, // Figure 9: Boolean, free [3 4 7]
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
