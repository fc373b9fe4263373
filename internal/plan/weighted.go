package plan

import "projpush/internal/cq"

// Weights assigns a byte width to every variable — the paper's Section 7
// extension: "queries with weighted attributes, reflecting the fact that
// different attributes may have different widths in bytes". Arity is then
// replaced by weighted arity as the cost measure a plan minimizes.
type Weights struct {
	// ByVar holds per-variable weights; variables not present use
	// Default.
	ByVar map[cq.Var]int
	// Default is the weight of unlisted variables. Zero means 1.
	Default int
}

// Of returns the weight of v.
func (w Weights) Of(v cq.Var) int {
	if wt, ok := w.ByVar[v]; ok {
		return wt
	}
	if w.Default > 0 {
		return w.Default
	}
	return 1
}

// RowWeight returns the weighted arity of a schema: the number of bytes
// one tuple over these attributes occupies.
func (w Weights) RowWeight(attrs []cq.Var) int {
	total := 0
	for _, v := range attrs {
		total += w.Of(v)
	}
	return total
}

// WeightedWidth returns the maximum weighted arity over every node's
// output schema — the generalization of Stats.Width that the weighted
// optimization targets. With all weights 1 it equals Analyze(n).Width.
func WeightedWidth(n Node, w Weights) int {
	width := 0
	schemas(n, func(_ Node, attrs []cq.Var) { width = max(width, w.RowWeight(attrs)) })
	return width
}
