package projpush

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/jointree"
	"projpush/internal/minibucket"
	"projpush/internal/pgplanner"
	"projpush/internal/plan"
	"projpush/internal/sqlgen"
	"projpush/internal/sqlparse"
)

// TestIntegrationAllPathsAgree drives every evaluation path in the
// repository over a matrix of instances and checks they all compute the
// same relation: the four paper methods, the tree-decomposition planner
// under each heuristic, the naive planner-ordered plan, the SQL
// generate→parse→execute round trip, Yannakakis on acyclic queries,
// exact mini-buckets, and the backtracking oracle as ground truth.
func TestIntegrationAllPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	db := instance.ColorDatabase(3)
	opts := engine.Options{Timeout: 30 * time.Second, MaxRows: 2_000_000}

	type inst struct {
		name string
		g    *graph.Graph
	}
	instances := []inst{
		{"path", graph.Path(7)},
		{"cycle", graph.Cycle(6)},
		{"augpath", graph.AugmentedPath(4)},
		{"ladder", graph.Ladder(4)},
		{"augladder", graph.AugmentedLadder(3)},
		{"augcircladder", graph.AugmentedCircularLadder(3)},
		{"wheel", graph.Wheel(5)},
		{"K4", graph.Complete(4)},
	}
	for i := 0; i < 4; i++ {
		n := 5 + rng.Intn(4)
		m := n + rng.Intn(n)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g, err := graph.Random(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, inst{"random", g})
	}

	for _, in := range instances {
		for _, boolean := range []bool{true, false} {
			var free []cq.Var
			if boolean {
				free = instance.BooleanFree(in.g)
			} else {
				free = instance.ChooseFree(instance.EdgeVertices(in.g), 0.2, rng)
			}
			q, err := instance.ColorQuery(in.g, free)
			if err != nil {
				t.Fatal(err)
			}
			want, err := engine.EvalOracle(q, db)
			if err != nil {
				t.Fatal(err)
			}

			check := func(name string, got interface {
				Equal(*Relation) bool
			}) {
				t.Helper()
				if !want.Equal(got.(*Relation)) {
					t.Errorf("%s boolean=%v: %s disagrees with oracle", in.name, boolean, name)
				}
			}

			// The four paper methods.
			for _, m := range core.Methods {
				p, err := core.BuildPlan(m, q, rng)
				if err != nil {
					t.Fatal(err)
				}
				if err := plan.Validate(p, q); err != nil {
					t.Fatalf("%s: %v", m, err)
				}
				res, err := engine.Exec(p, db, opts)
				if err != nil {
					t.Fatalf("%s %s: %v", in.name, m, err)
				}
				check(string(m), res.Rel)

				// SQL round trip (SQL needs at least one column).
				if len(q.Free) > 0 {
					sql, err := sqlgen.FromPlan(p)
					if err != nil {
						t.Fatal(err)
					}
					back, err := sqlparse.Parse(sql)
					if err != nil {
						t.Fatalf("%s %s: parse: %v", in.name, m, err)
					}
					res2, err := engine.Exec(back, db, opts)
					if err != nil {
						t.Fatal(err)
					}
					check(string(m)+"/sql-roundtrip", res2.Rel)
				}
			}

			// Tree-decomposition planning under each heuristic.
			for _, h := range []core.OrderHeuristic{core.OrderMCS, core.OrderMinFill, core.OrderMinDegree} {
				p, err := core.TreeDecompositionPlan(q, h, rng)
				if err != nil {
					t.Fatal(err)
				}
				res, err := engine.Exec(p, db, opts)
				if err != nil {
					t.Fatal(err)
				}
				check("treedec/"+string(h), res.Rel)
			}

			// Naive: planner-chosen order, straightforward shape.
			cm := pgplanner.NewCostModel(db)
			pr, err := pgplanner.Plan(q, cm, rng, pgplanner.Options{})
			if err != nil {
				t.Fatal(err)
			}
			np, err := core.StraightforwardOrder(q, pr.Order)
			if err != nil {
				t.Fatal(err)
			}
			nres, err := engine.Exec(np, db, opts)
			if err != nil {
				t.Fatal(err)
			}
			check("naive", nres.Rel)

			// Yannakakis (acyclic queries only).
			if jointree.IsAcyclic(q) {
				yr, err := engine.ExecYannakakisContext(context.Background(), q, db, opts)
				if err != nil {
					t.Fatal(err)
				}
				check("yannakakis", yr.Rel)
			}

			// Mini-buckets with an unconstrained bound are exact.
			order, err := core.VarOrder(q, core.OrderMCS, rng)
			if err != nil {
				t.Fatal(err)
			}
			mb, err := minibucket.Evaluate(q, db, order, len(order))
			if err != nil {
				t.Fatal(err)
			}
			if !mb.Exact {
				t.Fatalf("%s: unconstrained mini-buckets split a bucket", in.name)
			}
			check("minibucket", mb.Rel)
		}
	}
}

// TestIntegrationWeightedPlansAgree checks that the weighted-order
// extension changes only plan shape, never answers.
func TestIntegrationWeightedPlansAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := instance.ColorDatabase(3)
	for trial := 0; trial < 5; trial++ {
		g, err := graph.Random(8, 14, rng)
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
		w := plan.Weights{ByVar: map[cq.Var]int{0: 8, 1: 4}, Default: 1}
		p, err := core.BucketEliminationWeighted(q, w)
		if err != nil {
			t.Fatal(err)
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
			t.Fatalf("trial %d: weighted plan changed the answer", trial)
		}
	}
}
