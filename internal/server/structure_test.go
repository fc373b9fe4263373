package server

import (
	"math/rand"
	"strings"
	"testing"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/jointree"
	"projpush/internal/treedec"
)

// analyze is jointree.Analyze for a query the test knows is valid.
func analyze(t testing.TB, q *cq.Query) *jointree.Structure {
	t.Helper()
	s, err := jointree.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestOneStructurePerCompiledText compiles the structured 3-COLOR
// families, the selective chain and spider and the cyclic random graphs
// and wheels, with Boolean and free heads, methodless and naming a plan
// method, and checks that everything a compiled entry decided or will run
// reads its one structure: the verdict's elimination width and the
// route's width tier were computed from it, a named plan's ladder is led
// by the rung its width picks, and the full reducer and the leapfrog join
// — a route's strategy and that ladder's lead — sweep its tree and
// descend its order. The last is checked by swapping a probe's analysis
// into the entry's structure after compile: what runs later must follow
// the swap, so it cannot hold a copy of its own. The admission plan is
// checked the same way, with a min-degree order and join tree in place of
// the structure's MCS ones.
func TestOneStructurePerCompiledText(t *testing.T) {
	pool, db := routePool(t)
	pool = append(pool, selectiveCases(t, db)...)
	rng := rand.New(rand.NewSource(9))
	for _, g := range []*graph.Graph{graph.AugmentedPath(10), graph.Ladder(10), graph.AugmentedLadder(10), graph.AugmentedCircularLadder(10)} {
		q, err := instance.ColorQuery(g, instance.ChooseFree(instance.EdgeVertices(g), 0.2, rng))
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, routeCase{g.String() + "/free", q})
	}
	// The probe is a triangle over e on variables no pool query uses.
	probe := analyze(t, &cq.Query{Free: []cq.Var{900}, Atoms: []cq.Atom{
		{Rel: "e", Args: []cq.Var{900, 901}}, {Rel: "e", Args: []cq.Var{901, 902}}, {Rel: "e", Args: []cq.Var{902, 900}},
	}})

	s := New(Config{DB: db})
	seen := map[core.Method]int{}
	swapped := 0 // admission plans the min-degree swap changed
	for _, pc := range pool {
		// A methodless entry runs its route; one naming a plan method
		// degrades down the ladder with the structural lead.
		for _, named := range []string{"", string(core.MethodBucketElimination), string(core.MethodYannakakis), string(core.MethodWCOJ)} {
			name := pc.name + "/" + named
			c, _ := s.compile(textOf(t, pc.q), named)
			if c.status != "" {
				t.Fatalf("%s: %s: %s", name, c.status, c.err)
			}
			st := c.structure
			alt := minDegreeStructure(t, st.Query)
			want, err := core.BucketEliminationOrder(alt.Query, alt.Order)
			if named == string(core.MethodYannakakis) {
				want = alt.Tree.ToPlan()
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := admissionFP(t, named, alt); got != FingerprintID(want) {
				t.Errorf("%s: admission plan does not read the structure's order or tree", name)
			} else if got != admissionFP(t, named, st) {
				swapped++
			}
			if c.verdict.ElimWidth != st.Width {
				t.Errorf("%s: verdict's elimination width %d, the structure's %d", name, c.verdict.ElimWidth, st.Width)
			}
			narrow := st.Width <= engine.DefaultYannakakisWidth
			switch c.reason {
			case "narrow":
				if !narrow {
					t.Errorf("%s: routed narrow at structure width %d", name, st.Width)
				}
			case "default":
				if narrow {
					t.Errorf("%s: routed default at structure width %d", name, st.Width)
				}
			case "agm":
				if !c.verdict.AdmittedOnAGM && st.Width <= agmMinWidth {
					t.Errorf("%s: routed agm at structure width %d", name, st.Width)
				}
			}
			var structural []engine.Fallback
			if !runsPlan(c.method) {
				structural = append(structural, c.strategy)
			}
			if runsPlan(core.Method(named)) && named != "" {
				lead := c.ladder()[0]
				if (lead.Name == string(core.MethodYannakakis)) != narrow {
					t.Errorf("%s: ladder leads with %s at structure width %d", name, lead.Name, st.Width)
				}
				structural = append(structural, lead)
			}

			saved := *st
			*st = *probe
			for _, f := range structural {
				out, err := f.Explain(db, engine.Options{}, false)
				if err != nil {
					t.Fatalf("%s: %s: %v", name, f.Name, err)
				}
				if !strings.Contains(out, "x900") {
					t.Errorf("%s: %s does not read the entry's structure:\n%s", name, f.Name, out)
				}
				seen[core.Method(f.Name)]++
			}
			*st = saved
		}
	}
	if seen[core.MethodYannakakis] == 0 || seen[core.MethodWCOJ] == 0 {
		t.Errorf("structural executors checked: %v; want both", seen)
	}
	if swapped == 0 {
		t.Error("no min-degree order or tree changed an admission plan; the check proves nothing")
	}
}

// minDegreeStructure is q's structure with the order and join tree of a
// min-degree elimination instead of MCS.
func minDegreeStructure(t *testing.T, q *cq.Query) *jointree.Structure {
	t.Helper()
	jg, elim, err := core.EliminationOrder(q, core.OrderMinDegree, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := jointree.FromDecomposition(q, jg, treedec.FromOrder(jg.G, elim))
	if err != nil {
		t.Fatal(err)
	}
	order, err := core.VarOrder(q, core.OrderMinDegree, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &jointree.Structure{Query: q, Order: order, Tree: tree}
}

// admissionFP fingerprints admissionPlan(named, s).
func admissionFP(t *testing.T, named string, s *jointree.Structure) string {
	t.Helper()
	p, err := admissionPlan(named, s)
	if err != nil {
		t.Fatal(err)
	}
	return FingerprintID(p)
}
