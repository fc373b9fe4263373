package plan

import (
	"strconv"
	"strings"

	"projpush/internal/cq"
)

// Fingerprint returns a canonical structural fingerprint of the plan
// subtree rooted at n, invariant under variable renaming: two subtrees
// have equal fingerprints iff one is the image of the other under an
// injective variable substitution. Variables are numbered 0..k-1 in
// first-occurrence order of a deterministic left-to-right walk, so the
// same join/projection structure over differently-named variables — the
// common case across repetitions of a structured workload — maps to one
// fingerprint.
func Fingerprint(n Node) string {
	var b strings.Builder
	canon := make(map[cq.Var]int)
	id := func(v cq.Var) int {
		if c, ok := canon[v]; ok {
			return c
		}
		c := len(canon)
		canon[v] = c
		return c
	}
	writeVars := func(vs []cq.Var) {
		for i, v := range vs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(id(v)))
		}
	}
	var walk func(Node)
	walk = func(n Node) {
		switch t := n.(type) {
		case *Scan:
			b.WriteString("s:")
			b.WriteString(t.Atom.Rel)
			b.WriteByte('(')
			writeVars(t.Atom.Args)
			b.WriteByte(')')
		case *Join:
			b.WriteString("j(")
			walk(t.Left)
			b.WriteString(")(")
			walk(t.Right)
			b.WriteByte(')')
		case *Project:
			b.WriteString("p{")
			writeVars(t.Cols)
			b.WriteString("}(")
			walk(t.Child)
			b.WriteByte(')')
		default:
			// Unknown node kinds cannot be canonicalized; make the
			// fingerprint unique so they never alias a real subtree.
			b.WriteString("?:")
			b.WriteString(t.String())
		}
	}
	walk(n)
	return b.String()
}
