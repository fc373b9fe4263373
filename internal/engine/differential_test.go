package engine

import (
	"fmt"
	"testing"

	"projpush/internal/core"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/plan"
)

// figureWorkloads builds the structured 3-COLOR workloads behind
// Figures 6–9 (augmented paths, ladders, augmented ladders, augmented
// circular ladders), at orders small enough that even the exponential
// straightforward baseline terminates.
func figureWorkloads(t testing.TB) []struct {
	name string
	g    *graph.Graph
} {
	t.Helper()
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"fig6-augpath", graph.AugmentedPath(8)},
		{"fig7-ladder", graph.Ladder(6)},
		{"fig8-augladder", graph.AugmentedLadder(4)},
		{"fig9-augcircladder", graph.AugmentedCircularLadder(4)},
	}
}

// TestDifferentialFigureWorkloads runs every Figure-6–9 workload and
// every optimization method on the plan walker and checks the answer
// against the backtracking oracle and the instrumentation against the
// logical plan: the walker is kept because its counts are the paper's, so
// MaxArity must be the plan's width and every Join and Project node must
// be counted once.
func TestDifferentialFigureWorkloads(t *testing.T) {
	for _, w := range figureWorkloads(t) {
		q, err := instance.ColorQuery(w.g, instance.BooleanFree(w.g))
		if err != nil {
			t.Fatal(err)
		}
		db := instance.ColorDatabase(3)
		oracle, err := EvalOracle(q, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range core.Methods {
			t.Run(fmt.Sprintf("%s/%s", w.name, m), func(t *testing.T) {
				p, err := core.BuildPlan(m, q, nil)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Exec(p, db, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Rel.Equal(oracle) {
					t.Fatalf("walker relation differs from oracle (%d vs %d rows)",
						res.Rel.Len(), oracle.Len())
				}
				logical := plan.Analyze(p)
				if res.Stats.MaxArity != logical.Width {
					t.Fatalf("MaxArity %d != plan width %d", res.Stats.MaxArity, logical.Width)
				}
				if res.Stats.Joins != logical.Joins || res.Stats.Projections != logical.Projects {
					t.Fatalf("operator counts %d joins, %d projections; plan has %d, %d",
						res.Stats.Joins, res.Stats.Projections, logical.Joins, logical.Projects)
				}
			})
		}
	}
}

// TestDifferentialIteratorUnchanged pins that the iterator executor still
// matches the materializing executor on the figure workloads after its
// port onto the packed-key kernels.
func TestDifferentialIteratorUnchanged(t *testing.T) {
	db := instance.ColorDatabase(3)
	for _, w := range figureWorkloads(t) {
		q, err := instance.ColorQuery(w.g, instance.BooleanFree(w.g))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range core.Methods {
			t.Run(fmt.Sprintf("%s/%s", w.name, m), func(t *testing.T) {
				p, err := core.BuildPlan(m, q, nil)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := Exec(p, db, Options{})
				if err != nil {
					t.Fatal(err)
				}
				got, err := ExecIterator(p, db, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !ref.Rel.Equal(got.Rel) {
					t.Fatalf("iterator relation differs (%d vs %d rows)",
						got.Rel.Len(), ref.Rel.Len())
				}
			})
		}
	}
}
