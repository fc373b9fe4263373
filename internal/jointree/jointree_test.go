package jointree_test

import (
	"context"
	"math/rand"
	"testing"

	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/jointree"
	"projpush/internal/plan"
	"projpush/internal/treedec"
)

// buildTree constructs the join-expression tree of the 3-COLOR query of g
// from the tree decomposition induced by the given elimination order.
func buildTree(t *testing.T, g *graph.Graph, elim []int) (*jointree.Tree, *cq.Query, *jointree.JoinGraph) {
	t.Helper()
	q := colorQuery(t, g)
	jg := jointree.BuildJoinGraph(q)
	if elim == nil {
		elim = jg.MCSElimination(q.Free, nil)
	}
	dec := treedec.FromOrder(jg.G, elim)
	if err := dec.Validate(jg.G); err != nil {
		t.Fatal(err)
	}
	tree, err := jointree.FromDecomposition(q, jg, dec)
	if err != nil {
		t.Fatal(err)
	}
	return tree, q, jg
}

func TestFromDecompositionPath(t *testing.T) {
	tree, q, _ := buildTree(t, graph.Path(6), nil)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// Path join graph has treewidth 1: tree width must be 2.
	if w := tree.Width(); w != 2 {
		t.Fatalf("path join-tree width = %d, want 2", w)
	}
	p := tree.ToPlan()
	if err := plan.Validate(p, q); err != nil {
		t.Fatalf("lowered plan invalid: %v", err)
	}
}

func TestTheorem1Cycle(t *testing.T) {
	// Round-trip Theorem 1 on small random graphs: a join tree built
	// from an optimal decomposition has width exactly tw+1, and
	// Algorithm 1 maps it back to a valid decomposition of width
	// tree.Width()-1.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(6)
		m := n - 1 + rng.Intn(n)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g, err := graph.Random(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		if g.M() == 0 {
			continue
		}
		q := colorQuery(t, g)
		jg := jointree.BuildJoinGraph(q)
		tw, elim, err := treedec.Exact(jg.G)
		if err != nil {
			t.Fatal(err)
		}
		dec := treedec.FromOrder(jg.G, elim)
		tree, err := jointree.FromDecomposition(q, jg, dec)
		if err != nil {
			t.Fatal(err)
		}
		if w := tree.Width(); w != tw+1 {
			t.Fatalf("trial %d: join-tree width %d, want treewidth+1 = %d (graph %v)",
				trial, w, tw+1, g)
		}
		// Algorithm 1: back to a decomposition.
		back := jointree.ToDecomposition(tree, jg)
		if err := back.Validate(jg.G); err != nil {
			t.Fatalf("trial %d: Algorithm 1 output invalid: %v", trial, err)
		}
		if back.Width() != tree.Width()-1 {
			t.Fatalf("trial %d: Algorithm 1 width %d, want %d",
				trial, back.Width(), tree.Width()-1)
		}
	}
}

func TestPlanEquivalentToOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := instance.ColorDatabase(3)
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(5)
		m := n + rng.Intn(n)
		if max := n * (n - 1) / 2; max < m {
			m = max
		}
		g, err := graph.Random(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		if g.M() == 0 {
			continue
		}
		tree, q, _ := buildTree(t, g, nil)
		p := tree.ToPlan()
		if err := plan.Validate(p, q); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res, err := engine.Exec(p, db, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.EvalOracle(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Rel.Equal(want) {
			t.Fatalf("trial %d: join-tree plan %v != oracle %v", trial, res.Rel, want)
		}
	}
}

func TestNonBooleanPlan(t *testing.T) {
	g := graph.Ladder(4)
	rng := rand.New(rand.NewSource(2))
	free := instance.ChooseFree(instance.EdgeVertices(g), 0.2, rng)
	q, err := instance.ColorQuery(g, free)
	if err != nil {
		t.Fatal(err)
	}
	jg := jointree.BuildJoinGraph(q)
	elim := jg.MCSElimination(q.Free, nil)
	dec := treedec.FromOrder(jg.G, elim)
	tree, err := jointree.FromDecomposition(q, jg, dec)
	if err != nil {
		t.Fatal(err)
	}
	p := tree.ToPlan()
	if err := plan.Validate(p, q); err != nil {
		t.Fatal(err)
	}
	db := instance.ColorDatabase(3)
	res, err := engine.Exec(p, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.EvalOracle(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rel.Equal(want) {
		t.Fatalf("non-Boolean: plan %v != oracle %v", res.Rel, want)
	}
	if res.Rel.Arity() != len(free) {
		t.Fatalf("result arity %d != %d free vars", res.Rel.Arity(), len(free))
	}
}

func TestWidthMonotoneInDecompositionQuality(t *testing.T) {
	// A bad elimination order cannot make the join tree *narrower* than
	// one from an optimal order.
	q := colorQuery(t, graph.AugmentedCircularLadder(4))
	jg := jointree.BuildJoinGraph(q)
	tw, optElim, err := treedec.Exact(jg.G)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := jointree.FromDecomposition(q, jg, treedec.FromOrder(jg.G, optElim))
	if err != nil {
		t.Fatal(err)
	}
	if opt.Width() != tw+1 {
		t.Fatalf("optimal width = %d, want %d", opt.Width(), tw+1)
	}
	// Identity order is usually bad here.
	idElim := make([]int, jg.G.N)
	for i := range idElim {
		idElim[i] = i
	}
	bad, err := jointree.FromDecomposition(q, jg, treedec.FromOrder(jg.G, idElim))
	if err != nil {
		t.Fatal(err)
	}
	if bad.Width() < opt.Width() {
		t.Fatalf("bad order width %d below optimal %d", bad.Width(), opt.Width())
	}
}

func TestValidateCatchesCorruptedTrees(t *testing.T) {
	tree, _, _ := buildTree(t, graph.Path(4), nil)
	// Corrupt: clobber the root's projected label.
	orig := tree.Root.Projected
	tree.Root.Projected = []cq.Var{999}
	if err := tree.Validate(); err == nil {
		t.Fatal("accepted root projecting unknown variable")
	}
	tree.Root.Projected = orig

	// Corrupt a leaf's working label.
	var leaf *jointree.Node
	for _, n := range nodes(tree) {
		if n.Atom != nil {
			leaf = n
			break
		}
	}
	origW := leaf.Working
	leaf.Working = []cq.Var{0}
	if err := tree.Validate(); err == nil {
		t.Fatal("accepted leaf working label != atom vars")
	}
	leaf.Working = origW
	if err := tree.Validate(); err != nil {
		t.Fatalf("restored tree should validate: %v", err)
	}
}

func TestNodesPreorder(t *testing.T) {
	tree, q, _ := buildTree(t, graph.Path(3), nil)
	all := nodes(tree)
	if all[0] != tree.Root {
		t.Fatal("first node is not root")
	}
	leaves := 0
	for _, n := range all {
		if n.Atom != nil {
			leaves++
		}
	}
	if leaves != len(q.Atoms) {
		t.Fatalf("leaves = %d, want %d", leaves, len(q.Atoms))
	}
}

func TestTheorem1NonBoolean(t *testing.T) {
	// The paper's Theorem 1 extends the Boolean characterization to
	// non-Boolean queries: the target schema contributes a clique to the
	// join graph, and the join width is still treewidth+1 of that graph.
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 12; trial++ {
		n := 5 + rng.Intn(4)
		m := n + rng.Intn(n)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g, err := graph.Random(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		if g.M() == 0 {
			continue
		}
		free := instance.ChooseFree(instance.EdgeVertices(g), 0.3, rng)
		if len(free) < 2 {
			continue // need a real clique to exercise the extension
		}
		q, err := instance.ColorQuery(g, free)
		if err != nil {
			t.Fatal(err)
		}
		jg := jointree.BuildJoinGraph(q)
		tw, elim, err := treedec.Exact(jg.G)
		if err != nil {
			t.Fatal(err)
		}
		dec := treedec.FromOrder(jg.G, elim)
		tree, err := jointree.FromDecomposition(q, jg, dec)
		if err != nil {
			t.Fatal(err)
		}
		if w := tree.Width(); w != tw+1 {
			t.Fatalf("trial %d: non-Boolean join width %d, want tw+1 = %d (free=%v)",
				trial, w, tw+1, free)
		}
		// The round trip still yields a valid decomposition: the free
		// clique forces the target schema into one bag.
		back := jointree.ToDecomposition(tree, jg)
		if err := back.Validate(jg.G); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestBuildBinaryAtomsMirrorGraph(t *testing.T) {
	// For the paper's 3-COLOR queries over binary edge atoms with a
	// single free variable, the join graph is exactly the input graph.
	q := &cq.Query{
		Atoms: []cq.Atom{
			{Rel: "edge", Args: []cq.Var{0, 1}},
			{Rel: "edge", Args: []cq.Var{1, 2}},
			{Rel: "edge", Args: []cq.Var{2, 0}},
		},
		Free: []cq.Var{0},
	}
	jg := jointree.BuildJoinGraph(q)
	if jg.G.N != 3 || jg.G.M() != 3 {
		t.Fatalf("join graph %v, want triangle", jg.G)
	}
}

func TestBuildAtomClique(t *testing.T) {
	// A ternary atom yields a triangle.
	q := &cq.Query{
		Atoms: []cq.Atom{{Rel: "r", Args: []cq.Var{5, 7, 9}}},
		Free:  []cq.Var{5},
	}
	jg := jointree.BuildJoinGraph(q)
	if jg.G.M() != 3 {
		t.Fatalf("clique edges = %d, want 3", jg.G.M())
	}
	a, b, c := jg.Index[5], jg.Index[7], jg.Index[9]
	if !jg.G.HasEdge(a, b) || !jg.G.HasEdge(b, c) || !jg.G.HasEdge(a, c) {
		t.Fatal("atom clique incomplete")
	}
}

func TestBuildTargetSchemaClique(t *testing.T) {
	// Two disjoint atoms whose variables are tied together only by the
	// target schema: the free clique must appear.
	q := &cq.Query{
		Atoms: []cq.Atom{
			{Rel: "r", Args: []cq.Var{0, 1}},
			{Rel: "r", Args: []cq.Var{2, 3}},
		},
		Free: []cq.Var{0, 2},
	}
	jg := jointree.BuildJoinGraph(q)
	if !jg.G.HasEdge(jg.Index[0], jg.Index[2]) {
		t.Fatal("target-schema clique edge missing")
	}
	// No spurious edges between 1 and 3.
	if jg.G.HasEdge(jg.Index[1], jg.Index[3]) {
		t.Fatal("spurious edge between unrelated variables")
	}
}

func TestBuildDedupAcrossAtoms(t *testing.T) {
	// Repeated co-occurrence must not duplicate edges.
	q := &cq.Query{
		Atoms: []cq.Atom{
			{Rel: "r", Args: []cq.Var{0, 1}},
			{Rel: "s", Args: []cq.Var{0, 1}},
		},
		Free: []cq.Var{0},
	}
	jg := jointree.BuildJoinGraph(q)
	if jg.G.M() != 1 {
		t.Fatalf("edges = %d, want 1", jg.G.M())
	}
}

func TestVarSetAndVertices(t *testing.T) {
	q := &cq.Query{
		Atoms: []cq.Atom{{Rel: "r", Args: []cq.Var{10, 20}}},
		Free:  []cq.Var{10},
	}
	jg := jointree.BuildJoinGraph(q)
	vs := jg.VarSet([]int{0, 1})
	if vs[0] != 10 || vs[1] != 20 {
		t.Fatalf("VarSet = %v", vs)
	}
	idx := jg.Vertices([]cq.Var{20, 10, 99})
	if idx[0] != 1 || idx[1] != 0 || idx[2] != -1 {
		t.Fatalf("Vertices = %v", idx)
	}
}

func TestSemijoinsUselessFor3Color(t *testing.T) {
	// The paper's observation: projecting a column of the edge relation
	// yields all colors, so the full reducer never deletes a tuple on
	// the acyclic 3-COLOR families, whose bags are single edge atoms.
	db := instance.ColorDatabase(3)
	for _, g := range []*graph.Graph{graph.Path(6), graph.AugmentedPath(5), graph.AugmentedPath(12)} {
		q := colorQuery(t, g)
		if !jointree.IsAcyclic(q) {
			t.Fatalf("%v: family must be acyclic", g)
		}
		res, err := engine.ExecYannakakisContext(context.Background(), q, db, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ReducedTuples != 0 {
			t.Fatalf("%v: sweeps removed %d tuples; semijoins should be useless", g, res.Stats.ReducedTuples)
		}
	}
}

// guarded fails t unless guards holds one guard per bag of s.Dec whose
// atoms cover the bag's variables.
func guarded(t *testing.T, s *jointree.Structure, guards [][]int) {
	t.Helper()
	if len(guards) != s.Dec.NumNodes() {
		t.Fatalf("%d guards for %d bags", len(guards), s.Dec.NumNodes())
	}
	for i, bag := range s.Dec.Bags {
		covered := make(map[int]bool)
		for _, ai := range guards[i] {
			for _, v := range s.Query.Atoms[ai].Args {
				covered[s.Graph.Index[v]] = true
			}
		}
		for _, v := range bag {
			if !covered[v] {
				t.Fatalf("bag %d: vertex %d not covered by guard %v", i, v, guards[i])
			}
		}
	}
}

func TestGuardsCoverRandomDecompositions(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(8)
		m := n + rng.Intn(2*n)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g, err := graph.Random(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		if g.M() == 0 {
			continue
		}
		q := colorQuery(t, g)
		jg := jointree.BuildJoinGraph(q)
		td := treedec.FromOrder(jg.G, jg.MCSElimination(q.Free, rng))
		s := &jointree.Structure{Query: q, Graph: jg, Dec: td}
		guards, w := s.Guards()
		guarded(t, s, guards)
		// Binary atoms: each guard atom covers at most 2 bag vertices,
		// so width is within [⌈(tw+1)/2⌉, tw+1].
		if bagMax := td.Width() + 1; w > bagMax || 2*w < bagMax {
			t.Fatalf("trial %d: hypertree width %d out of range for bag size %d", trial, w, bagMax)
		}
	}
}

// hypertreeWidth analyzes q and checks and returns its guards' width.
func hypertreeWidth(t *testing.T, q *cq.Query) int {
	t.Helper()
	s, err := jointree.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	guards, w := s.Guards()
	guarded(t, s, guards)
	return w
}

func TestWideAtomsCollapseWidth(t *testing.T) {
	// A clique over 6 variables as a single 6-ary atom: treewidth of the
	// join graph is 5, but one atom guards everything — hypertree width 1
	// (the classical separation between the width notions).
	q := &cq.Query{
		Atoms: []cq.Atom{{Rel: "r6", Args: []cq.Var{0, 1, 2, 3, 4, 5}}},
		Free:  []cq.Var{0},
	}
	if w := hypertreeWidth(t, q); w != 1 {
		t.Fatalf("single-atom clique hypertree width = %d, want 1", w)
	}
}

func TestTriangleWidths(t *testing.T) {
	// A triangle of binary atoms: treewidth 2 (bags of 3), guards need
	// 2 binary atoms per 3-vertex bag.
	if w := hypertreeWidth(t, colorQuery(t, graph.Cycle(3))); w != 2 {
		t.Fatalf("triangle hypertree width = %d, want 2", w)
	}
}

func TestPathWidthOne(t *testing.T) {
	// A path decomposes into bags of 2 covered by single edge atoms:
	// hypertree width 1, the acyclicity certificate.
	if w := hypertreeWidth(t, colorQuery(t, graph.Path(8))); w != 1 {
		t.Fatalf("path hypertree width = %d, want 1", w)
	}
}

// colorQuery is the Boolean 3-COLOR query of g.
func colorQuery(t *testing.T, g *graph.Graph) *cq.Query {
	t.Helper()
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// nodes returns all of t's nodes in pre-order.
func nodes(t *jointree.Tree) []*jointree.Node {
	var out []*jointree.Node
	var walk func(*jointree.Node)
	walk = func(n *jointree.Node) {
		out = append(out, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return out
}
