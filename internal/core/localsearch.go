package core

import (
	"fmt"
	"math/rand"

	"projpush/internal/cq"
	"projpush/internal/jointree"
	"projpush/internal/plan"
	"projpush/internal/treedec"
)

// ImproveOrder runs a hill-climbing local search over bucket-elimination
// variable orders, minimizing induced width — the practical face of the
// paper's "treewidth approximation" future-work item (Section 7). The
// search starts from the given order (typically MCS), repeatedly moves a
// random eliminated variable to a random new position, and keeps the
// move when the induced width does not increase (plateau moves allowed,
// so the search can traverse equal-width ridges). Free variables stay
// pinned at the front. iters bounds the number of candidate moves.
//
// The returned order is always at least as good as the start; by
// Theorem 2 the unreachable optimum is the join graph's treewidth.
func ImproveOrder(q *cq.Query, start []cq.Var, iters int, rng *rand.Rand) ([]cq.Var, int, error) {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	jg := jointree.BuildJoinGraph(q)
	numFree := len(q.Free)
	if len(start) != len(jg.Vars) {
		return nil, 0, fmt.Errorf("core: order has %d variables, query has %d", len(start), len(jg.Vars))
	}

	width := func(order []cq.Var) int {
		// Bucket elimination processes from the back: the elimination
		// order is the reverse of the variable order, excluding the
		// never-eliminated free variables (they are processed last and
		// the final join over them is bounded by the free count, which
		// Theorem 1 folds into the target-schema clique).
		elim := make([]int, 0, len(order))
		for i := len(order) - 1; i >= 0; i-- {
			elim = append(elim, jg.Index[order[i]])
		}
		return treedec.InducedWidth(jg.G, elim)
	}

	cur := append([]cq.Var(nil), start...)
	curW := width(cur)
	best := append([]cq.Var(nil), cur...)
	bestW := curW

	if len(cur)-numFree >= 2 {
		cand := make([]cq.Var, len(cur))
		for it := 0; it < iters; it++ {
			// Move one eliminated variable to a new position (both
			// within the non-free suffix).
			from := numFree + rng.Intn(len(cur)-numFree)
			to := numFree + rng.Intn(len(cur)-numFree)
			if from == to {
				continue
			}
			copy(cand, cur)
			v := cand[from]
			if from < to {
				copy(cand[from:], cand[from+1:to+1])
			} else {
				copy(cand[to+1:], cand[to:from])
			}
			cand[to] = v
			if w := width(cand); w <= curW {
				cur, cand = cand, cur
				curW = w
				if w < bestW {
					bestW = w
					copy(best, cur)
				}
			}
		}
	}
	return best, bestW, nil
}

// BucketEliminationImproved plans with an MCS order refined by local
// search: the MCS VarOrder followed by ImproveOrder with the given move
// budget.
func BucketEliminationImproved(q *cq.Query, iters int, rng *rand.Rand) (plan.Node, error) {
	start, err := VarOrder(q, OrderMCS, rng)
	if err != nil {
		return nil, err
	}
	order, _, err := ImproveOrder(q, start, iters, rng)
	if err != nil {
		return nil, err
	}
	return BucketEliminationOrder(q, order)
}
