package minibucket

import (
	"math/rand"
	"testing"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/relation"
)

func setup(t *testing.T, g *graph.Graph) (*cq.Query, cq.Database, []cq.Var) {
	t.Helper()
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	return q, instance.ColorDatabase(3), mcsOrder(t, q, nil)
}

// mcsOrder is the paper's bucket-elimination variable order for q.
func mcsOrder(t *testing.T, q *cq.Query, rng *rand.Rand) []cq.Var {
	t.Helper()
	order, err := core.VarOrder(q, core.OrderMCS, rng)
	if err != nil {
		t.Fatal(err)
	}
	return order
}

func TestExactWhenBoundLarge(t *testing.T) {
	q, db, order := setup(t, graph.Cycle(5))
	res, err := Evaluate(q, db, order, len(order))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("bound = #vars must never split a bucket")
	}
	want, err := engine.EvalOracle(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rel.Equal(want) {
		t.Fatalf("exact mini-bucket %v != oracle %v", res.Rel, want)
	}
}

func TestUpperApproximation(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	db := instance.ColorDatabase(3)
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(5)
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
		q, err := instance.ColorQuery(g, instance.BooleanFree(g))
		if err != nil {
			t.Fatal(err)
		}
		order := mcsOrder(t, q, rng)
		want, err := engine.EvalOracle(q, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, bound := range []int{2, 3, 4} {
			res, err := Evaluate(q, db, order, bound)
			if err != nil {
				t.Fatal(err)
			}
			// Superset property: every exact tuple appears in the
			// approximation (both relations share the target-schema
			// column order).
			ok := true
			want.Each(func(tu relation.Tuple) bool {
				if !res.Rel.Contains(tu) {
					ok = false
					return false
				}
				return true
			})
			if !ok {
				t.Fatalf("trial %d bound %d: approximation misses an exact tuple", trial, bound)
			}
			// Soundness of emptiness: empty approximation implies
			// empty exact answer.
			if res.Rel.Empty() && !want.Empty() {
				t.Fatalf("trial %d bound %d: empty approximation but nonempty answer", trial, bound)
			}
			if res.MaxArity > maxInt(bound, widestAtom(q)) {
				t.Fatalf("trial %d bound %d: arity %d exceeded the bound", trial, bound, res.MaxArity)
			}
		}
	}
}

func widestAtom(q *cq.Query) int {
	w := 0
	for _, a := range q.Atoms {
		if len(a.Args) > w {
			w = len(a.Args)
		}
	}
	return w
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestBoundTrumpsWidth(t *testing.T) {
	// On a clique the exact induced width is n-1; mini-buckets with a
	// small bound must keep intermediate arity at the bound.
	q, db, order := setup(t, graph.Complete(6))
	res, err := Evaluate(q, db, order, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatal("a clique bucket must split under bound 3")
	}
	if res.MaxArity > 3 {
		t.Fatalf("arity %d exceeds bound 3", res.MaxArity)
	}
	// K6 is not 3-colorable but the relaxation may not detect it; what
	// matters is no false emptiness, checked in TestUpperApproximation.
}

func TestErrors(t *testing.T) {
	q, db, order := setup(t, graph.Cycle(4))
	if _, err := Evaluate(q, db, order, 0); err == nil {
		t.Fatal("accepted bound 0")
	}
	if _, err := Evaluate(q, db, order[1:], 3); err == nil {
		t.Fatal("accepted incomplete order")
	}
	bad := append([]cq.Var{order[1]}, order[1:]...)
	if _, err := Evaluate(q, db, bad, 3); err == nil {
		t.Fatal("accepted duplicate in order")
	}
	if _, err := Evaluate(&cq.Query{}, db, nil, 3); err == nil {
		t.Fatal("accepted empty query")
	}
}

func TestFreeVariablesSurvive(t *testing.T) {
	g := graph.Ladder(3)
	rng := rand.New(rand.NewSource(3))
	free := instance.ChooseFree(instance.EdgeVertices(g), 0.2, rng)
	q, err := instance.ColorQuery(g, free)
	if err != nil {
		t.Fatal(err)
	}
	db := instance.ColorDatabase(3)
	order := mcsOrder(t, q, nil)
	res, err := Evaluate(q, db, order, len(order))
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.EvalOracle(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rel.Equal(want) {
		t.Fatalf("non-Boolean exact mini-bucket differs from oracle")
	}
}
