package core

import (
	"fmt"
	"math/rand"

	"projpush/internal/cq"
	"projpush/internal/jointree"
	"projpush/internal/plan"
	"projpush/internal/treedec"
)

// OrderHeuristic names an elimination-order heuristic for
// tree-decomposition-based planning.
type OrderHeuristic string

// The supported elimination-order heuristics. The paper fixes MCS
// (Section 5); min-fill and min-degree are the standard alternatives the
// ablation benches compare it against.
const (
	OrderMCS       OrderHeuristic = "mcs"
	OrderMinFill   OrderHeuristic = "minfill"
	OrderMinDegree OrderHeuristic = "mindegree"
)

// EliminationOrder computes an elimination order of q's join graph under
// the heuristic, returned as join-graph vertices alongside the join graph
// itself. Under MCS a nil rng gives jointree.Analyze's order.
func EliminationOrder(q *cq.Query, h OrderHeuristic, rng *rand.Rand) (*jointree.JoinGraph, []int, error) {
	jg := jointree.BuildJoinGraph(q)
	switch h {
	case OrderMCS:
		return jg, jg.MCSElimination(q.Free, rng), nil
	case OrderMinFill:
		return jg, treedec.MinFill(jg.G), nil
	case OrderMinDegree:
		return jg, treedec.MinDegree(jg.G), nil
	default:
		return nil, nil, fmt.Errorf("core: unknown order heuristic %q", h)
	}
}

// TreeDecompositionPlan builds a plan through the paper's Theorem 1
// machinery instead of bucket elimination: compute an elimination order of
// the join graph with the chosen heuristic, derive the induced tree
// decomposition, convert it to a join-expression tree via Algorithms 2
// and 3, and lower that tree to a plan. The plan's width is at most the
// decomposition width plus one; with an optimal decomposition it attains
// the query's join width exactly.
//
// Bucket elimination under the matching variable order produces plans of
// the same width (Theorem 2); this path exists as the constructive side
// of Theorem 1 and as an independent implementation the tests and
// ablation benches cross-check against.
func TreeDecompositionPlan(q *cq.Query, h OrderHeuristic, rng *rand.Rand) (plan.Node, error) {
	if len(q.Atoms) == 0 {
		return nil, fmt.Errorf("core: query has no atoms")
	}
	jg, elim, err := EliminationOrder(q, h, rng)
	if err != nil {
		return nil, err
	}
	dec := treedec.FromOrder(jg.G, elim)
	tree, err := jointree.FromDecomposition(q, jg, dec)
	if err != nil {
		return nil, err
	}
	return tree.ToPlan(), nil
}
