package jointree

import (
	"fmt"
	"testing"

	"projpush/internal/cq"
	"projpush/internal/graph"
	"projpush/internal/instance"
)

func TestIsAcyclicFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"path", graph.Path(6), true},
		{"augmented path", graph.AugmentedPath(5), true},
		{"star via wheel rim removed", graph.Path(2), true},
		{"cycle", graph.Cycle(5), false},
		{"ladder", graph.Ladder(4), false},
		{"complete", graph.Complete(4), false},
	}
	for _, c := range cases {
		q, err := instance.ColorQuery(c.g, instance.BooleanFree(c.g))
		if err != nil {
			t.Fatal(err)
		}
		if got := IsAcyclic(q); got != c.want {
			t.Errorf("%s: IsAcyclic = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestIsAcyclicHypergraph(t *testing.T) {
	// A ternary atom covering a triangle is acyclic as a hypergraph.
	q := &cq.Query{
		Atoms: []cq.Atom{
			{Rel: "r3", Args: []cq.Var{0, 1, 2}},
			{Rel: "edge", Args: []cq.Var{0, 1}},
		},
		Free: []cq.Var{0},
	}
	if !IsAcyclic(q) {
		t.Fatal("hyperedge-covered triangle must be acyclic")
	}
}

// TestGraphPathAgreesWithGYO: IsAcyclic's union-find pass over binary
// atoms agrees with GYO on parallel and reversed atoms, unary atoms,
// repeated variables and disconnected components, and ternary atoms take
// GYO itself, which counts a variable once per atom however often the atom
// repeats it.
func TestGraphPathAgreesWithGYO(t *testing.T) {
	atom := func(vs ...cq.Var) cq.Atom { return cq.Atom{Rel: fmt.Sprintf("r%d", len(vs)), Args: vs} }
	for _, c := range []struct {
		name    string
		atoms   []cq.Atom
		acyclic bool
	}{
		{"path", []cq.Atom{atom(0, 1), atom(1, 2), atom(2, 3)}, true},
		{"parallel and reversed", []cq.Atom{atom(0, 1), atom(1, 0), atom(0, 1), atom(1, 2)}, true},
		{"unary and a loop", []cq.Atom{atom(0), atom(0, 1), atom(1), atom(1, 1)}, true},
		{"triangle", []cq.Atom{atom(0, 1), atom(1, 2), atom(2, 0)}, false},
		{"forest and a cycle", []cq.Atom{atom(0, 1), atom(2, 3), atom(3, 4), atom(4, 5), atom(5, 2)}, false},
		{"ternary ear", []cq.Atom{atom(0, 1, 2), atom(0, 1), atom(2, 3)}, true},
		{"ternary cycle", []cq.Atom{atom(0, 1, 2), atom(2, 3), atom(3, 0)}, false},
		{"covered triangle", []cq.Atom{atom(0, 1, 2), atom(0, 1), atom(1, 2), atom(2, 0)}, true},
		{"ternary path", []cq.Atom{atom(0, 3, 1), atom(1, 2, 4)}, true},
		{"ternary path, repeated variables", []cq.Atom{atom(0, 0, 1), atom(1, 2, 2)}, true},
	} {
		q := &cq.Query{Atoms: c.atoms, Free: []cq.Var{0}}
		if got := IsAcyclic(q); got != c.acyclic || got != gyo(q) {
			t.Errorf("%s: IsAcyclic %v, want %v (GYO says %v)", c.name, got, c.acyclic, gyo(q))
		}
	}
}
