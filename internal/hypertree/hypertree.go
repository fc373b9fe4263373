// Package hypertree implements a heuristic for generalized hypertree
// decompositions, the width notion of Gottlob, Leone and Scarcello that
// the paper lists among the ideas worth importing into structural query
// optimization (Section 7). A hypertree decomposition augments each bag
// of a tree decomposition with a *guard*: a set of query atoms whose
// variables cover the bag. Its width is the maximum guard size — for
// queries with wide atoms this can be far below treewidth, because one
// k-ary atom guards k variables at cost 1.
//
// Computing hypertree width exactly is NP-hard, like treewidth; the
// standard practical route — taken here — is to build a tree
// decomposition first and cover each bag greedily with atoms. The paper
// notes that for its binary-atom workloads the widths essentially
// coincide (each guard atom covers two variables); the tests verify both
// that observation and the wide-atom payoff.
package hypertree

import (
	"fmt"
	"sort"

	"projpush/internal/cq"
	"projpush/internal/joingraph"
	"projpush/internal/jointree"
	"projpush/internal/treedec"
)

// Decomposition is a generalized hypertree decomposition: a tree
// decomposition plus a guard (set of atom indexes) per node.
type Decomposition struct {
	// TD is the underlying tree decomposition over join-graph vertices.
	TD *treedec.Decomposition
	// Guards[i] lists indexes into the query's atom list whose variables
	// cover bag i.
	Guards [][]int
}

// Width returns the maximum guard size, the (generalized) hypertree
// width of this decomposition.
func (d *Decomposition) Width() int {
	w := 0
	for _, g := range d.Guards {
		if len(g) > w {
			w = len(g)
		}
	}
	return w
}

// Validate checks the guard property: every vertex of every bag occurs
// in some guard atom of that bag.
func (d *Decomposition) Validate(q *cq.Query, jg *joingraph.JoinGraph) error {
	if len(d.Guards) != d.TD.NumNodes() {
		return fmt.Errorf("hypertree: %d guards for %d nodes", len(d.Guards), d.TD.NumNodes())
	}
	for i, bag := range d.TD.Bags {
		covered := make(map[int]bool)
		for _, ai := range d.Guards[i] {
			if ai < 0 || ai >= len(q.Atoms) {
				return fmt.Errorf("hypertree: node %d guard references atom %d", i, ai)
			}
			for _, v := range q.Atoms[ai].Args {
				covered[jg.Index[v]] = true
			}
		}
		for _, v := range bag {
			if !covered[v] {
				return fmt.Errorf("hypertree: node %d: vertex %d not covered by guard", i, v)
			}
		}
	}
	return nil
}

// Greedy builds a generalized hypertree decomposition from a tree
// decomposition of q's join graph by covering each bag with atoms
// greedily (largest uncovered-variable gain first, lowest index on
// ties). The result's width is at most the decomposition width + 1 and
// at least the optimum for this skeleton.
func Greedy(q *cq.Query, jg *joingraph.JoinGraph, td *treedec.Decomposition) (*Decomposition, error) {
	if len(q.Atoms) == 0 {
		return nil, fmt.Errorf("hypertree: query has no atoms")
	}
	// Precompute each atom's vertex set.
	atomVerts := make([][]int, len(q.Atoms))
	for i, a := range q.Atoms {
		set := make([]int, 0, len(a.Args))
		for _, v := range a.Args {
			idx, ok := jg.Index[v]
			if !ok {
				return nil, fmt.Errorf("hypertree: atom %d variable x%d not in join graph", i, v)
			}
			set = append(set, idx)
		}
		sort.Ints(set)
		atomVerts[i] = set
	}

	d := &Decomposition{TD: td, Guards: make([][]int, td.NumNodes())}
	for n, bag := range td.Bags {
		uncovered := make(map[int]bool, len(bag))
		for _, v := range bag {
			uncovered[v] = true
		}
		var guard []int
		for len(uncovered) > 0 {
			best, bestGain := -1, 0
			for ai, verts := range atomVerts {
				gain := 0
				for _, v := range verts {
					if uncovered[v] {
						gain++
					}
				}
				if gain > bestGain {
					best, bestGain = ai, gain
				}
			}
			if best < 0 {
				return nil, fmt.Errorf("hypertree: bag %d contains a vertex in no atom", n)
			}
			guard = append(guard, best)
			for _, v := range atomVerts[best] {
				delete(uncovered, v)
			}
		}
		sort.Ints(guard)
		d.Guards[n] = guard
	}
	return d, nil
}

// Estimate computes a generalized hypertree width estimate for a query:
// cover the bags of its MCS tree decomposition (jointree.Analyze)
// greedily. It returns the estimated width and the decomposition.
func Estimate(q *cq.Query) (int, *Decomposition, error) {
	s, err := jointree.Analyze(q)
	if err != nil {
		return 0, nil, err
	}
	d, err := Greedy(q, s.Graph, s.Dec)
	if err != nil {
		return 0, nil, err
	}
	return d.Width(), d, nil
}
