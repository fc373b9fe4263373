package core

import (
	"fmt"

	"projpush/internal/cq"
	"projpush/internal/jointree"
	"projpush/internal/plan"
	"projpush/internal/treedec"
)

// MinWeightVarOrder computes a bucket-elimination variable order for
// weighted attributes (Section 7's extension): the join graph is
// eliminated by the min-weight heuristic — always removing the variable
// whose bucket (itself plus live neighbors) has the smallest total byte
// weight — and the resulting order is reversed into processing order with
// the free variables pinned to the front.
func MinWeightVarOrder(q *cq.Query, w plan.Weights) []cq.Var {
	jg := jointree.BuildJoinGraph(q)
	weights := make([]int, len(jg.Vars))
	for i, v := range jg.Vars {
		weights[i] = w.Of(v)
	}
	elim := treedec.MinWeight(jg.G, weights)
	free := make(map[cq.Var]bool, len(q.Free))
	order := append([]cq.Var(nil), q.Free...)
	for _, v := range q.Free {
		free[v] = true
	}
	for i := len(elim) - 1; i >= 0; i-- {
		v := jg.Vars[elim[i]]
		if !free[v] {
			order = append(order, v)
		}
	}
	return order
}

// BucketEliminationWeighted builds a bucket-elimination plan whose
// variable order minimizes *weighted* intermediate arity rather than
// column count — the natural reading of the paper's weighted-attribute
// future work. With uniform weights it coincides with a min-degree-style
// order.
func BucketEliminationWeighted(q *cq.Query, w plan.Weights) (plan.Node, error) {
	if len(q.Atoms) == 0 {
		return nil, fmt.Errorf("core: query has no atoms")
	}
	return BucketEliminationOrder(q, MinWeightVarOrder(q, w))
}
