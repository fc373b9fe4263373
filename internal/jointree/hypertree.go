package jointree

// Guards makes s.Dec a generalized hypertree decomposition (Gottlob, Leone
// and Scarcello; one of the paper's Section 7 imports): it covers each bag
// with query atoms greedily, most uncovered bag variables first and the
// lowest atom index on ties, and returns each bag's guard atom indexes and
// the largest guard's size, the estimated width. One k-ary atom guards k
// variables, so with wide atoms the width can fall far below treewidth.
// Analyze refuses a free variable in no atom, so every bag gets covered.
func (s *Structure) Guards() (guards [][]int, width int) {
	atomVerts := make([][]int, len(s.Query.Atoms))
	for i, a := range s.Query.Atoms {
		atomVerts[i] = sortedVertices(nil, s.Graph, a.Args)
	}
	guards = make([][]int, s.Dec.NumNodes())
	for n, bag := range s.Dec.Bags {
		uncovered := make(map[int]bool, len(bag))
		for _, v := range bag {
			uncovered[v] = true
		}
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
			guards[n] = append(guards[n], best)
			for _, v := range atomVerts[best] {
				delete(uncovered, v)
			}
		}
		width = max(width, len(guards[n]))
	}
	return guards, width
}
