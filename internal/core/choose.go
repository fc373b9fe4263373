package core

import (
	"math/rand"

	"projpush/internal/cq"
	"projpush/internal/plan"
)

// OrderListed labels a plan that joins the atoms in the order the query
// lists them (straightforward, early projection): no heuristic chose it.
const OrderListed OrderHeuristic = "listed"

// OrderGreedy labels the reordering method's greedy atom permutation.
const OrderGreedy OrderHeuristic = "greedy"

// PlanOrder names the order behind BuildPlan's plan for the method.
func PlanOrder(m Method) OrderHeuristic {
	switch m {
	case MethodBucketElimination, MethodYannakakis, MethodWCOJ:
		return OrderMCS
	case MethodReordering:
		return OrderGreedy
	default:
		return OrderListed
	}
}

// Candidate is one plan for a query, with the order that shaped it and
// its width (maximum intermediate arity), which is all a choice between
// projection-pushed plans needs: the paper's Figures 3–5 show width, not
// search effort, deciding intermediate size.
type Candidate struct {
	Plan  plan.Node
	Order OrderHeuristic
	Width int
}

// NewCandidate measures p.
func NewCandidate(p plan.Node, order OrderHeuristic) Candidate {
	return Candidate{Plan: p, Order: order, Width: plan.Analyze(p).Width}
}

// Narrowest returns the candidate of least width. Ties keep the earliest
// candidate, so callers list the plan they would run anyway first and a
// later candidate replaces it only by being strictly narrower.
func Narrowest(first Candidate, rest ...Candidate) Candidate {
	best := first
	for _, c := range rest {
		if c.Width < best.Width {
			best = c
		}
	}
	return best
}

// NarrowestBucketElimination is the bucket-elimination plan of least
// width among the MCS order (given, since the caller has built it), the
// min-fill order and the min-degree order. The two extra orders cost a
// few hundred microseconds on a 160-variable query, so callers ask only
// when the plan is about to be executed by a materializing executor.
func NarrowestBucketElimination(q *cq.Query, mcs Candidate) (Candidate, error) {
	best := mcs
	for _, h := range []OrderHeuristic{OrderMinFill, OrderMinDegree} {
		order, err := VarOrder(q, h, nil)
		if err != nil {
			return Candidate{}, err
		}
		p, err := BucketEliminationOrder(q, order)
		if err != nil {
			return Candidate{}, err
		}
		best = Narrowest(best, NewCandidate(p, h))
	}
	return best, nil
}

// VarOrder is the bucket-elimination variable order of q under the
// heuristic, with the target schema held back: free variables come first
// (they are never eliminated) and the rest follow in reverse elimination
// order, since buckets are processed from the last variable down.
func VarOrder(q *cq.Query, h OrderHeuristic, rng *rand.Rand) ([]cq.Var, error) {
	jg, elim, err := EliminationOrder(q, h, rng)
	if err != nil {
		return nil, err
	}
	order := append(make([]cq.Var, 0, len(elim)), q.Free...)
	for i := len(elim) - 1; i >= 0; i-- {
		if v := jg.Vars[elim[i]]; !q.IsFree(v) {
			order = append(order, v)
		}
	}
	return order, nil
}
