// Package core implements the query-optimization methods the paper
// compares (Sections 3–5), all as pure plan constructions over
// conjunctive queries:
//
//   - Straightforward: join the atoms left-deep in the order given, with a
//     single final projection — no projection pushing (Section 3). The
//     naive method is the same plan shape with the join order chosen by a
//     cost-based planner (package pgplanner); use StraightforwardOrder
//     with that order.
//   - EarlyProjection: the same linear order, but each variable is
//     projected out immediately after its last occurrence joins
//     (Section 4).
//   - Reordering: a greedy atom permutation chosen to let variables be
//     projected as early as possible, then EarlyProjection (Section 4).
//   - BucketElimination: the constraint-satisfaction method of Section 5
//     under the maximum-cardinality-search variable order seeded with the
//     target schema; by Theorem 2 the optimal variable order achieves
//     intermediate arity treewidth+1.
//
// All constructors return plans that package plan validates and package
// engine executes; they differ only in join/projection structure, which
// is the paper's entire subject.
package core

import (
	"fmt"
	"math/rand"
	"sort"

	"projpush/internal/cq"
	"projpush/internal/plan"
)

// Method names a plan-construction strategy, as used by the experiment
// harness and CLIs.
type Method string

// The methods of the paper, in the order its figures present them.
const (
	MethodStraightforward   Method = "straightforward"
	MethodEarlyProjection   Method = "earlyprojection"
	MethodReordering        Method = "reordering"
	MethodBucketElimination Method = "bucketelimination"
)

// MethodYannakakis names the Yannakakis full-reducer execution strategy
// (engine.NewYannakakis): semijoin-sweep the MCS join tree, then
// evaluate bag by bag. It is deliberately not in Methods — it is an
// execution strategy, not a plan shape; BuildPlan returns the
// tree-decomposition plan over the same join tree as its static surrogate
// for width admission and EXPLAIN, but executing that plan does not
// perform the reduction.
const MethodYannakakis Method = "yannakakis"

// MethodStream names the pipelined streaming execution strategy
// (engine.NewPipeline): semijoin pushdown over the base relations, fused
// projection, and late materialization with live-byte accounting. Like
// MethodYannakakis it is an execution strategy, not a plan shape, so it is
// not in Methods. The engine lowers whatever plan it is handed, with the
// pushdown and fusion applied at execution time: BuildPlan returns the
// early-projection plan, which is what a request naming this method runs.
const MethodStream Method = "stream"

// MethodWCOJ names the worst-case-optimal multiway join execution
// strategy (engine.NewWCOJ): one global variable order, sorted per-atom
// indexes, and leapfrog intersection variable by variable, with total
// work inside the AGM output bound. Like MethodYannakakis and
// MethodStream it is an execution strategy, not a plan shape, so it is
// not in Methods; BuildPlan returns the bucket-elimination plan as its
// static surrogate — the same MCS variable order drives both, but the
// surrogate's width wildly overstates what the multiway join
// materializes on cyclic queries, which is exactly why the server admits
// wcoj routes on the AGM bound instead.
const MethodWCOJ Method = "wcoj"

// Methods lists all structural methods in presentation order.
var Methods = []Method{
	MethodStraightforward,
	MethodEarlyProjection,
	MethodReordering,
	MethodBucketElimination,
}

// Strategies lists the execution strategies — the methods that name an
// executor rather than a plan shape — in the order they were added.
var Strategies = []Method{MethodYannakakis, MethodStream, MethodWCOJ}

// Known reports whether m is a structural method or an execution
// strategy, i.e. a name BuildPlan accepts.
func Known(m Method) bool {
	for _, list := range [][]Method{Methods, Strategies} {
		for _, k := range list {
			if m == k {
				return true
			}
		}
	}
	return false
}

// BuildPlan constructs the plan for q under the named method. rng is used
// for the documented random tie-breaking of the reordering and
// bucket-elimination heuristics; nil means deterministic tie-breaking.
func BuildPlan(m Method, q *cq.Query, rng *rand.Rand) (plan.Node, error) {
	switch m {
	case MethodStraightforward:
		return Straightforward(q)
	case MethodEarlyProjection:
		return EarlyProjection(q)
	case MethodReordering:
		return Reordering(q, rng)
	case MethodBucketElimination:
		return BucketElimination(q, rng)
	case MethodYannakakis:
		// The static surrogate: same MCS join tree the full reducer
		// sweeps, lowered to a plan (no semijoin reduction).
		return TreeDecompositionPlan(q, OrderMCS, rng)
	case MethodStream:
		// The early-projection plan, lowered by the streaming engine
		// (pushdown and fusion happen at execution time).
		return EarlyProjection(q)
	case MethodWCOJ:
		// The static surrogate: bucket elimination under the same MCS
		// variable order the leapfrog join descends (no multiway
		// intersection happens in the surrogate).
		return BucketElimination(q, rng)
	default:
		return nil, fmt.Errorf("core: unknown method %q", m)
	}
}

// Straightforward builds the paper's straightforward plan: a left-deep
// join of the atoms in query order and one final projection to the target
// schema. Intermediate arity grows to the number of variables.
func Straightforward(q *cq.Query) (plan.Node, error) {
	if len(q.Atoms) == 0 {
		return nil, fmt.Errorf("core: query has no atoms")
	}
	nodes := make([]plan.Node, len(q.Atoms))
	for i := range q.Atoms {
		nodes[i] = &plan.Scan{Atom: q.Atoms[i]}
	}
	return &plan.Project{
		Child: plan.LeftDeepJoin(nodes),
		Cols:  append([]cq.Var(nil), q.Free...),
	}, nil
}

// StraightforwardOrder builds the straightforward plan after permuting the
// atoms by perm — the shape used for the naive method, whose join order
// comes from a cost-based planner.
func StraightforwardOrder(q *cq.Query, perm []int) (plan.Node, error) {
	pq, err := q.Permute(perm)
	if err != nil {
		return nil, err
	}
	return Straightforward(pq)
}

// EarlyProjection builds the early-projection plan of Section 4: atoms
// are joined in query order, and immediately after the join that consumes
// a variable's last occurrence, that variable is projected out (unless it
// is free). The projection keeps the live variables — exactly the
// max_occur construction of Section 6.1.
func EarlyProjection(q *cq.Query) (plan.Node, error) {
	if len(q.Atoms) == 0 {
		return nil, fmt.Errorf("core: query has no atoms")
	}
	last := q.LastOccurrence() // free variables pinned past the end
	var cur plan.Node
	var attrs []cq.Var // cur's schema, carried: asking a join rebuilds all below it
	for i, a := range q.Atoms {
		if i == 0 {
			cur, attrs = &plan.Scan{Atom: a}, a.Args
		} else {
			cur, attrs = &plan.Join{Left: cur, Right: &plan.Scan{Atom: a}}, plan.JoinAttrs(attrs, a.Args)
		}
		keep := attrs[:0:0]
		for _, v := range attrs {
			if last[v] > i {
				keep = append(keep, v)
			}
		}
		if len(keep) < len(attrs) {
			cur, attrs = &plan.Project{Child: cur, Cols: keep}, keep
		}
	}
	// All non-free variables have died; fix the column order to the
	// target schema.
	if !sameVarSet(attrs, q.Free) || len(attrs) != len(q.Free) {
		cur = &plan.Project{Child: cur, Cols: append([]cq.Var(nil), q.Free...)}
	}
	return cur, nil
}

// GreedyOrder computes the reordering heuristic of Section 4: it
// incrementally picks the next atom to maximize the number of its
// variables that occur only once among the remaining atoms (those die
// immediately); ties go to the atom sharing the fewest variables with the
// remaining atoms; further ties are broken randomly (by rng) or by lowest
// index (rng nil). It returns the atom permutation.
func GreedyOrder(q *cq.Query, rng *rand.Rand) []int {
	m := len(q.Atoms)
	remaining := make([]bool, m)
	counts := make(map[cq.Var]int)
	for i, a := range q.Atoms {
		remaining[i] = true
		for _, v := range a.Args {
			counts[v]++
		}
	}
	perm := make([]int, 0, m)
	for len(perm) < m {
		best := -1
		bestDying, bestShared := -1, int(^uint(0)>>1)
		var ties []int
		for i := 0; i < m; i++ {
			if !remaining[i] {
				continue
			}
			dying, shared := 0, 0
			for _, v := range q.Atoms[i].Args {
				if counts[v] == 1 {
					dying++
				} else {
					shared++
				}
			}
			switch {
			case best < 0 || dying > bestDying || (dying == bestDying && shared < bestShared):
				best, bestDying, bestShared = i, dying, shared
				ties = ties[:0]
				ties = append(ties, i)
			case dying == bestDying && shared == bestShared:
				ties = append(ties, i)
			}
		}
		if rng != nil && len(ties) > 1 {
			best = ties[rng.Intn(len(ties))]
		}
		remaining[best] = false
		for _, v := range q.Atoms[best].Args {
			counts[v]--
		}
		perm = append(perm, best)
	}
	return perm
}

// Reordering builds the reordering plan of Section 4: the greedy atom
// permutation followed by early projection.
func Reordering(q *cq.Query, rng *rand.Rand) (plan.Node, error) {
	if len(q.Atoms) == 0 {
		return nil, fmt.Errorf("core: query has no atoms")
	}
	pq, err := q.Permute(GreedyOrder(q, rng))
	if err != nil {
		return nil, err
	}
	return EarlyProjection(pq)
}

// BucketElimination builds the bucket-elimination plan of Section 5 under
// the MCS variable order: a maximum-cardinality-search numbering of the
// join graph seeded with the target schema.
func BucketElimination(q *cq.Query, rng *rand.Rand) (plan.Node, error) {
	order, err := VarOrder(q, OrderMCS, rng)
	if err != nil {
		return nil, err
	}
	return BucketEliminationOrder(q, order)
}

// BucketEliminationOrder builds the bucket-elimination plan for an
// explicit variable order x1..xn (free variables must come first, since
// they are never eliminated; VarOrder guarantees that). Each atom is
// placed in the bucket of its highest-numbered variable; buckets are
// processed from xn down: the bucket's relations are joined, the bucket
// variable is projected out, and the result moves to the bucket of its
// highest remaining variable. Relations whose variables are exhausted
// (possible only for disconnected queries) are joined into the final
// result as Boolean factors. By Theorem 2 the best order yields
// intermediate arity treewidth+1; the plan's width equals the induced
// width of the order plus one.
func BucketEliminationOrder(q *cq.Query, order []cq.Var) (plan.Node, error) {
	if len(q.Atoms) == 0 {
		return nil, fmt.Errorf("core: query has no atoms")
	}
	num := make(map[cq.Var]int, len(order))
	for i, v := range order {
		if _, dup := num[v]; dup {
			return nil, fmt.Errorf("core: variable x%d repeated in order", v)
		}
		num[v] = i
	}
	for _, v := range q.Vars() {
		if _, ok := num[v]; !ok {
			return nil, fmt.Errorf("core: variable x%d missing from order", v)
		}
	}
	// Free variables must precede all eliminated variables.
	freeSet := make(map[cq.Var]bool, len(q.Free))
	for _, v := range q.Free {
		freeSet[v] = true
	}
	numFree := len(q.Free)
	for _, v := range q.Free {
		if num[v] >= numFree {
			return nil, fmt.Errorf("core: free variable x%d not at the front of the order", v)
		}
	}

	bucketOf := func(attrs []cq.Var) int {
		max := -1
		for _, v := range attrs {
			if num[v] > max {
				max = num[v]
			}
		}
		return max
	}

	buckets := make([][]plan.Node, len(order))
	var residual []plan.Node // factors with no variables left
	place := func(n plan.Node) {
		if b := bucketOf(n.Attrs()); b >= 0 {
			buckets[b] = append(buckets[b], n)
		} else {
			residual = append(residual, n)
		}
	}
	for i := range q.Atoms {
		place(&plan.Scan{Atom: q.Atoms[i]})
	}

	for i := len(order) - 1; i >= numFree; i-- {
		if len(buckets[i]) == 0 {
			continue
		}
		joined := plan.LeftDeepJoin(buckets[i])
		attrs := joined.Attrs()
		keep := make([]cq.Var, 0, len(attrs)-1)
		for _, v := range attrs {
			if v != order[i] {
				keep = append(keep, v)
			}
		}
		place(&plan.Project{Child: joined, Cols: keep})
	}

	// Join what remains in the free buckets plus Boolean residuals.
	var final []plan.Node
	for i := 0; i < numFree; i++ {
		final = append(final, buckets[i]...)
	}
	final = append(final, residual...)
	if len(final) == 0 {
		return nil, fmt.Errorf("core: bucket elimination consumed all relations (no free variables and empty residue)")
	}
	root := plan.LeftDeepJoin(final)
	if len(root.Attrs()) != len(q.Free) || !sameVarSet(root.Attrs(), q.Free) {
		root = &plan.Project{Child: root, Cols: append([]cq.Var(nil), q.Free...)}
	}
	return root, nil
}

func sameVarSet(a, b []cq.Var) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]cq.Var(nil), a...)
	bs := append([]cq.Var(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
