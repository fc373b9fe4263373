package projpush

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"projpush/internal/graph"
	"projpush/internal/instance"
)

func TestSolve3ColoringFacade(t *testing.T) {
	res, err := Solve3Coloring(Ladder(5), BucketElimination, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Nonempty() {
		t.Fatal("ladders are 3-colorable")
	}
	if res.Stats.MaxArity == 0 || res.Stats.Joins == 0 {
		t.Fatalf("stats not populated: %+v", res.Stats)
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := graph.Random(10, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ColorQuery(g, BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	db := ColorDatabase(3)
	var first *Result
	for _, m := range Methods {
		p, err := BuildPlan(m, q, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidatePlan(p, q); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if PlanWidth(p) <= 0 {
			t.Fatalf("%s: nonpositive width", m)
		}
		res, err := Execute(p, db, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
		} else if first.Nonempty() != res.Nonempty() {
			t.Fatalf("%s disagrees on the Boolean answer", m)
		}
	}
}

func TestFacadeSQLRoundTrip(t *testing.T) {
	g := AugmentedPath(5)
	q, err := ColorQuery(g, BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildPlan(EarlyProjection, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	sql, err := SQL(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "SELECT DISTINCT") {
		t.Fatalf("unexpected SQL:\n%s", sql)
	}
	back, err := ParseSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Execute(p, ColorDatabase(3), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(back, ColorDatabase(3), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Rel.Equal(b.Rel) {
		t.Fatal("SQL round trip changed the result")
	}
}

func TestFacadeNonBoolean(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := AugmentedCircularLadder(3)
	free := instance.ChooseFree([]Var{0, 1, 2, 3, 4, 5}, 0.2, rng)
	q, err := ColorQuery(g, free)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), BucketElimination, q, ColorDatabase(3), ExecOptions{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Arity() != len(free) {
		t.Fatalf("arity %d != %d", res.Rel.Arity(), len(free))
	}
}

func TestFacadeRelationConstruction(t *testing.T) {
	r := NewRelation([]Var{0, 1})
	r.Add(Tuple{1, 2})
	if r.Len() != 1 {
		t.Fatal("facade relation broken")
	}
	g := NewGraph(3)
	g.AddEdge(0, 1)
	if g.M() != 1 {
		t.Fatal("facade graph broken")
	}
}
