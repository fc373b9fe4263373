package core

import (
	"fmt"
	"strings"

	"projpush/internal/cq"
	"projpush/internal/jointree"
	"projpush/internal/plan"
	"projpush/internal/treedec"
)

// StructuralReport collects the structural measures the paper's theory
// revolves around, for one query: the join graph, treewidth bounds, the
// induced widths of the order heuristics, the hypertree-width estimate,
// and the plan width each optimization method achieves. It is the
// "explain" of structural optimization: everything here is computed from
// schemas alone, without touching data.
type StructuralReport struct {
	// Vars and Atoms describe the query.
	Vars, Atoms int
	// JoinGraphEdges is the edge count of the join graph.
	JoinGraphEdges int
	// TreewidthLower is the degeneracy lower bound on treewidth.
	TreewidthLower int
	// TreewidthExact is the exact treewidth, or -1 when the join graph
	// exceeds the exact solver's limit.
	TreewidthExact int
	// InducedWidths maps each order heuristic to the induced width of
	// its elimination order (Theorem 2: the optimum equals treewidth).
	InducedWidths map[OrderHeuristic]int
	// HypertreeWidth is the greedy generalized-hypertree-width estimate.
	HypertreeWidth int
	// MethodWidths maps each optimization method to its plan width
	// (Theorem 1: the optimum equals treewidth+1).
	MethodWidths map[Method]int
}

// AnalyzeStructure computes the report. Exact treewidth is attempted
// only when the join graph has at most treedec.MaxExactVertices vertices.
func AnalyzeStructure(q *cq.Query) (*StructuralReport, error) {
	if len(q.Atoms) == 0 {
		return nil, fmt.Errorf("core: query has no atoms")
	}
	s, err := jointree.Analyze(q)
	if err != nil {
		return nil, err
	}
	jg := s.Graph
	r := &StructuralReport{
		Vars:           q.NumVars(),
		Atoms:          len(q.Atoms),
		JoinGraphEdges: jg.G.M(),
		TreewidthLower: jg.G.Degeneracy(),
		TreewidthExact: -1,
		InducedWidths:  make(map[OrderHeuristic]int),
		MethodWidths:   make(map[Method]int),
	}
	if jg.G.N <= treedec.MaxExactVertices {
		tw, _, err := treedec.Exact(jg.G)
		if err == nil {
			r.TreewidthExact = tw
		}
	}
	r.InducedWidths[OrderMCS] = s.Width
	for _, h := range []OrderHeuristic{OrderMinFill, OrderMinDegree} {
		_, elim, err := EliminationOrder(q, h, nil)
		if err != nil {
			return nil, err
		}
		r.InducedWidths[h] = treedec.InducedWidth(jg.G, elim)
	}
	_, r.HypertreeWidth = s.Guards()
	for _, m := range Methods {
		p, err := BuildPlan(m, q, nil)
		if err != nil {
			return nil, err
		}
		r.MethodWidths[m] = plan.Analyze(p).Width
	}
	return r, nil
}

// String renders the report as an aligned block.
func (r *StructuralReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %d atoms, %d variables; join graph: %d edges\n",
		r.Atoms, r.Vars, r.JoinGraphEdges)
	if r.TreewidthExact >= 0 {
		fmt.Fprintf(&b, "treewidth: %d (degeneracy lower bound %d)\n",
			r.TreewidthExact, r.TreewidthLower)
	} else {
		fmt.Fprintf(&b, "treewidth: >= %d (exact solver skipped)\n", r.TreewidthLower)
	}
	fmt.Fprintf(&b, "induced widths: mcs=%d minfill=%d mindegree=%d (optimum = treewidth)\n",
		r.InducedWidths[OrderMCS], r.InducedWidths[OrderMinFill], r.InducedWidths[OrderMinDegree])
	fmt.Fprintf(&b, "hypertree width estimate: %d\n", r.HypertreeWidth)
	fmt.Fprintf(&b, "plan widths: straightforward=%d earlyprojection=%d reordering=%d bucketelimination=%d (optimum = treewidth+1)\n",
		r.MethodWidths[MethodStraightforward], r.MethodWidths[MethodEarlyProjection],
		r.MethodWidths[MethodReordering], r.MethodWidths[MethodBucketElimination])
	return b.String()
}
