package jointree

import (
	"math/rand"

	"projpush/internal/cq"
	"projpush/internal/graph"
	"projpush/internal/treedec"
)

// JoinGraph is the join graph of a project-join query (Section 5 of the
// paper): the nodes are the query's attributes, each atom contributes a
// clique over its attributes, and the target schema contributes one more
// clique. Its treewidth plus one is the query's join width (Theorem 1).
// Variables are mapped onto the contiguous vertex ids package graph
// requires.
type JoinGraph struct {
	// G is the underlying simple graph; vertex i represents Vars[i].
	G *graph.Graph
	// Vars maps graph vertex to query variable, in first-occurrence
	// order.
	Vars []cq.Var
	// Index maps query variable to graph vertex.
	Index map[cq.Var]int
}

// BuildJoinGraph constructs the join graph of q.
func BuildJoinGraph(q *cq.Query) *JoinGraph {
	vars := q.Vars()
	idx := make(map[cq.Var]int, len(vars))
	for i, v := range vars {
		idx[v] = i
	}
	g := graph.New(len(vars))
	clique := func(vs []cq.Var) {
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				if vs[i] != vs[j] {
					g.AddEdge(idx[vs[i]], idx[vs[j]])
				}
			}
		}
	}
	for _, a := range q.Atoms {
		clique(a.Args)
	}
	clique(q.Free)
	return &JoinGraph{G: g, Vars: vars, Index: idx}
}

// VarSet converts a set of graph vertices back to query variables.
func (jg *JoinGraph) VarSet(vertices []int) []cq.Var {
	out := make([]cq.Var, len(vertices))
	for i, v := range vertices {
		out[i] = jg.Vars[v]
	}
	return out
}

// Vertices converts query variables to graph vertices. Unknown variables
// map to -1.
func (jg *JoinGraph) Vertices(vars []cq.Var) []int {
	out := make([]int, len(vars))
	for i, v := range vars {
		if j, ok := jg.Index[v]; ok {
			out[i] = j
		} else {
			out[i] = -1
		}
	}
	return out
}

// MCSElimination is the paper's elimination order of the join graph: the
// reverse of a maximum-cardinality-search numbering seeded with the free
// variables, ties broken by rng or, when rng is nil, by vertex number.
func (jg *JoinGraph) MCSElimination(free []cq.Var, rng *rand.Rand) []int {
	return treedec.EliminationOrder(treedec.MCS(jg.G, jg.Vertices(free), rng))
}
