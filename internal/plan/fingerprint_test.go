package plan

import (
	"testing"

	"projpush/internal/cq"
)

func fpScan(rel string, args ...cq.Var) *Scan {
	return &Scan{Atom: cq.Atom{Rel: rel, Args: args}}
}

func TestFingerprintRenamingInvariance(t *testing.T) {
	// π{x1}(e(x1,x2) ⋈ e(x2,x3)) and the same shape under the injective
	// renaming 1→7, 2→4, 3→9 must collide; a structural change must not.
	a := &Project{
		Cols:  []cq.Var{1},
		Child: &Join{Left: fpScan("e", 1, 2), Right: fpScan("e", 2, 3)},
	}
	b := &Project{
		Cols:  []cq.Var{7},
		Child: &Join{Left: fpScan("e", 7, 4), Right: fpScan("e", 4, 9)},
	}
	if fa, fb := Fingerprint(a), Fingerprint(b); fa != fb {
		t.Fatalf("renamed isomorphs got distinct fingerprints:\n%s\n%s", fa, fb)
	}
}

func TestFingerprintDiscriminates(t *testing.T) {
	base := &Join{Left: fpScan("e", 1, 2), Right: fpScan("e", 2, 3)}
	distinct := []Node{
		base,
		// Swapped children: joins are not commutative structurally.
		&Join{Left: fpScan("e", 2, 3), Right: fpScan("e", 1, 2)},
		// Different relation name.
		&Join{Left: fpScan("f", 1, 2), Right: fpScan("e", 2, 3)},
		// Non-injective pattern: shared variable in one atom.
		&Join{Left: fpScan("e", 1, 1), Right: fpScan("e", 1, 2)},
		// Projection on top.
		&Project{Cols: []cq.Var{1}, Child: base},
		// Projection keeping a different canonical column.
		&Project{Cols: []cq.Var{2}, Child: base},
	}
	seen := map[string]int{}
	for i, n := range distinct {
		f := Fingerprint(n)
		if j, dup := seen[f]; dup {
			t.Fatalf("plans %d and %d alias: %s", i, j, f)
		}
		seen[f] = i
	}
}

// TestFingerprintSeparatesConnectionPattern pins the subtlety the
// first-occurrence numbering must capture: which *positions* share a
// variable, not what the variable is called. e(x,y)⋈e(y,z) (a path) and
// e(x,y)⋈e(x,z) (a fork) use the same relation twice with two fresh
// variables each, but connect through different columns.
func TestFingerprintSeparatesConnectionPattern(t *testing.T) {
	path := Fingerprint(&Join{Left: fpScan("e", 1, 2), Right: fpScan("e", 2, 3)})
	fork := Fingerprint(&Join{Left: fpScan("e", 1, 2), Right: fpScan("e", 1, 3)})
	if path == fork {
		t.Fatalf("path and fork join patterns alias: %s", path)
	}
}
