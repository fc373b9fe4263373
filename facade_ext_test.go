package projpush

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"projpush/internal/engine"
	"projpush/internal/jointree"
)

func TestFacadeAnalyzeStructure(t *testing.T) {
	g := Ladder(5)
	q, err := ColorQuery(g, BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	r, err := AnalyzeStructure(q)
	if err != nil {
		t.Fatal(err)
	}
	if r.TreewidthExact != 2 {
		t.Fatalf("ladder treewidth = %d", r.TreewidthExact)
	}
	if !strings.Contains(r.String(), "plan widths") {
		t.Fatal("report rendering broken")
	}
}

func TestFacadeHypertreeWidth(t *testing.T) {
	g := AugmentedPath(6)
	q, err := ColorQuery(g, BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	w, err := HypertreeWidth(q)
	if err != nil {
		t.Fatal(err)
	}
	if w != 1 {
		t.Fatalf("acyclic query hypertree width = %d, want 1", w)
	}
}

func TestFacadeExplainAndIterator(t *testing.T) {
	g := Ladder(4)
	q, err := ColorQuery(g, BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildPlan(BucketElimination, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := ColorDatabase(3)
	out, err := Explain(BucketElimination, q, db, ExecOptions{}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "rows=") {
		t.Fatalf("explain analyze output:\n%s", out)
	}
	a, err := Execute(p, db, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.ExecIterator(p, db, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Rel.Equal(b.Rel) {
		t.Fatal("iterator engine disagrees through the facade")
	}
}

func TestFacadeTreeDecompositionPlan(t *testing.T) {
	g := AugmentedCircularLadder(4)
	q, err := ColorQuery(g, BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []OrderHeuristic{OrderMCS, OrderMinFill, OrderMinDegree} {
		p, err := TreeDecompositionPlan(q, h, nil)
		if err != nil {
			t.Fatalf("%s: %v", h, err)
		}
		if err := ValidatePlan(p, q); err != nil {
			t.Fatalf("%s: %v", h, err)
		}
	}
}

func TestFacadeWeighted(t *testing.T) {
	g := Ladder(4)
	q, err := ColorQuery(g, BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	w := Weights{ByVar: map[Var]int{0: 10}, Default: 1}
	p, err := BucketEliminationWeighted(q, w)
	if err != nil {
		t.Fatal(err)
	}
	if WeightedWidth(p, w) < PlanWidth(p) {
		t.Fatal("weighted width below column count with weights >= 1")
	}
}

func TestFacadeMiniBucketAndYannakakis(t *testing.T) {
	g := AugmentedPath(5)
	q, err := ColorQuery(g, BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	db := ColorDatabase(3)
	if !jointree.IsAcyclic(q) {
		t.Fatal("augmented path query must be acyclic")
	}
	y, err := Run(context.Background(), MethodYannakakis, q, db, ExecOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := MiniBucket(q, db, q.NumVars(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !mb.Exact || !mb.Rel.Equal(y.Rel) {
		t.Fatal("exact mini-bucket and Yannakakis disagree")
	}
}

func TestFacadeContainmentAndMinimize(t *testing.T) {
	e := func(u, v Var) Atom { return Atom{Rel: "edge", Args: []Var{u, v}} }
	q := &Query{Atoms: []Atom{e(0, 1), e(0, 1), e(1, 2)}, Free: []Var{0}}
	min, err := MinimizeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(min.Atoms) != 2 {
		t.Fatalf("minimized to %d atoms", len(min.Atoms))
	}
	eq, err := EquivalentQueries(q, min)
	if err != nil || !eq {
		t.Fatalf("equivalence: %v %v", eq, err)
	}
	sub := &Query{Atoms: []Atom{e(0, 1)}, Free: []Var{0}}
	ok, err := ContainedIn(q, sub)
	if err != nil || !ok {
		t.Fatalf("q ⊆ sub: %v %v", ok, err)
	}
}

func TestFacadeDIMACS(t *testing.T) {
	g, err := ReadDIMACSGraph(strings.NewReader("p edge 3 2\ne 1 2\ne 2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || g.M() != 2 {
		t.Fatalf("graph: %v", g)
	}
	s, err := ReadDIMACSCNF(strings.NewReader("p cnf 2 1\n1 -2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVars != 2 || len(s.Clauses) != 1 {
		t.Fatalf("cnf: %+v", s)
	}
}

func TestFacadeSATPath(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s, err := RandomSAT(3, 8, 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	vars := SATVariables(s)
	q, db, err := SATQuery(s, vars[:1])
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), BucketElimination, q, db, ExecOptions{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	_ = res.Nonempty() // both outcomes valid; the call path is the test
}

func TestFacadeHybrid(t *testing.T) {
	g := AugmentedLadder(5)
	q, err := ColorQuery(g, BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	db := ColorDatabase(3)
	choice, err := Hybrid(q, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if choice.Candidate == "" {
		t.Fatal("no candidate chosen")
	}
	if err := ValidatePlan(choice.Plan, q); err != nil {
		t.Fatal(err)
	}
	res, err := Execute(choice.Plan, db, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Nonempty() {
		t.Fatal("augmented ladder is 3-colorable")
	}
}

func TestFacadeResourceGovernor(t *testing.T) {
	g := AugmentedCircularLadder(4)
	q, err := ColorQuery(g, BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	db := ColorDatabase(3)
	p, err := BuildPlan(Straightforward, q, nil)
	if err != nil {
		t.Fatal(err)
	}

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range slices.Concat(Methods, []Method{MethodYannakakis, MethodStream, MethodWCOJ}) {
		if _, err := Run(pre, m, q, db, ExecOptions{}, nil); !errors.Is(err, ErrCanceled) {
			t.Fatalf("Run(%s) pre-canceled: err = %v, want ErrCanceled", m, err)
		}
	}

	// A tiny byte budget fails the straightforward plan with ErrMemLimit;
	// ExecuteResilient rescues it down the ladder.
	tight := ExecOptions{MaxBytes: 1 << 10}
	if _, err := Execute(p, db, tight); !errors.Is(err, ErrMemLimit) {
		t.Fatalf("Execute under 1KiB budget: err = %v, want ErrMemLimit", err)
	}
	res, err := ExecuteResilient(context.Background(), p, DegradationLadder(q, nil), db, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Attempts) != 1 || res.Stats.Attempts[0].Method != "given" {
		t.Fatalf("unconstrained resilient run attempts = %+v, want the given plan only", res.Stats.Attempts)
	}
	if !res.Nonempty() {
		t.Fatal("augmented circular ladder is 3-colorable")
	}
}

func TestFacadeStream(t *testing.T) {
	g := AugmentedLadder(4)
	q, err := ColorQuery(g, BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	db := ColorDatabase(3)

	res, err := Run(context.Background(), MethodStream, q, db, ExecOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(context.Background(), BucketElimination, q, db, ExecOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rel.Equal(ref.Rel) {
		t.Fatal("streaming and bucket-elimination answers disagree")
	}
	// Streaming stats report peak live bytes, not a cumulative total.
	if res.Stats.PeakBytes <= 0 || res.Stats.Bytes != res.Stats.PeakBytes {
		t.Fatalf("stream stats Bytes=%d PeakBytes=%d, want equal positive peaks",
			res.Stats.Bytes, res.Stats.PeakBytes)
	}

	out, err := Explain(MethodStream, q, db, ExecOptions{}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "stream pipeline") || !strings.Contains(out, "rows=") {
		t.Fatalf("Explain(MethodStream) analyze output:\n%s", out)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, MethodStream, q, db, ExecOptions{}, nil); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run(MethodStream) pre-canceled: err = %v, want ErrCanceled", err)
	}
}
