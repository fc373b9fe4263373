package jointree_test

import (
	"math/rand"
	"testing"

	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/joingraph"
	"projpush/internal/jointree"
	"projpush/internal/plan"
	"projpush/internal/treedec"
)

// buildTree constructs the join-expression tree of the 3-COLOR query of g
// from the tree decomposition induced by the given elimination order.
func buildTree(t *testing.T, g *graph.Graph, elim []int) (*jointree.Tree, *cq.Query, *joingraph.JoinGraph) {
	t.Helper()
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	jg := joingraph.Build(q)
	if elim == nil {
		elim = treedec.EliminationOrder(treedec.MCS(jg.G, jg.Vertices(q.Free), nil))
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
		q, err := instance.ColorQuery(g, instance.BooleanFree(g))
		if err != nil {
			t.Fatal(err)
		}
		jg := joingraph.Build(q)
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
	jg := joingraph.Build(q)
	elim := treedec.EliminationOrder(treedec.MCS(jg.G, jg.Vertices(q.Free), nil))
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
	g := graph.AugmentedCircularLadder(4)
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	jg := joingraph.Build(q)
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
		jg := joingraph.Build(q)
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
