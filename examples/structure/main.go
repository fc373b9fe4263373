// Structure: the analysis side of the library — for each query family,
// print the structural report (treewidth bounds, heuristic induced
// widths, hypertree-width estimate, per-method plan widths) and an
// EXPLAIN ANALYZE of the bucket-elimination plan. Everything except the
// EXPLAIN row counts is computed from schemas alone: the paper's central
// point is that these data-independent numbers predict execution cost.
//
//	go run ./examples/structure
package main

import (
	"fmt"
	"log"

	"projpush"
)

func main() {
	cases := []struct {
		name string
		g    *projpush.Graph
	}{
		{"augmented path, order 8", projpush.AugmentedPath(8)},
		{"ladder, order 6", projpush.Ladder(6)},
		{"augmented circular ladder, order 5", projpush.AugmentedCircularLadder(5)},
	}
	for _, c := range cases {
		q, err := projpush.ColorQuery(c.g, projpush.BooleanFree(c.g))
		if err != nil {
			log.Fatal(err)
		}
		rep, err := projpush.AnalyzeStructure(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s ==\n%s", c.name, rep)

		hw, err := projpush.HypertreeWidth(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("generalized hypertree width (greedy): %d\n\n", hw)
	}

	// EXPLAIN ANALYZE of the bucket plan for the last case: the plan
	// tree with actual cardinalities, all tiny because the width is.
	g := projpush.Ladder(4)
	q, err := projpush.ColorQuery(g, projpush.BooleanFree(g))
	if err != nil {
		log.Fatal(err)
	}
	out, err := projpush.Explain(projpush.BucketElimination, q, projpush.ColorDatabase(3), projpush.ExecOptions{}, true, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== EXPLAIN ANALYZE: bucket elimination on ladder(4) ==\n%s", out)
}
