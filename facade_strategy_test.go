package projpush

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/relation"
)

// selectiveChain is BenchmarkYannakakisChain's shape scaled down until the
// backtracking oracle can check it: a path of binary atoms over random
// relations with a three-tuple head at the free end.
func selectiveChain() (*cq.Query, cq.Database) {
	const atoms, rows, dom = 5, 60, 30
	rng := rand.New(rand.NewSource(3))
	db := cq.Database{}
	q := &cq.Query{Free: []cq.Var{0, 1}}
	for i := 0; i < atoms; i++ {
		name := fmt.Sprintf("r%d", i)
		db[name] = randomRel(rng, rows, dom, dom)
		if i == 0 {
			db[name] = randomRel(rng, 3, dom, dom)
		}
		q.Atoms = append(q.Atoms, cq.Atom{Rel: name, Args: []cq.Var{cq.Var(i), cq.Var(i + 1)}})
	}
	return q, db
}

// TestRunExecutesTheMethodsStrategy pins the facade's one-call path to the
// executor the method names: Run(MethodYannakakis) used to run the
// surrogate tree-decomposition plan on the materializing executor, so the
// full reducer never ran and ReducedTuples stayed 0.
func TestRunExecutesTheMethodsStrategy(t *testing.T) {
	q, db := selectiveChain()
	want, err := engine.EvalOracle(q, db)
	if err != nil {
		t.Fatal(err)
	}
	ran := map[Method]func(st ExecStats) bool{
		MethodYannakakis: func(st ExecStats) bool { return st.ReducedTuples > 0 },
		MethodWCOJ:       func(st ExecStats) bool { return st.Seeks > 0 },
		MethodStream:     func(st ExecStats) bool { return st.ReducedTuples > 0 && st.Joins > 0 },
	}
	for m, ok := range ran {
		res, err := Run(context.Background(), m, q, db, ExecOptions{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if !res.Rel.Equal(want) {
			t.Errorf("%s: answer %v != oracle %v", m, res.Rel, want)
		}
		if !ok(res.Stats) {
			t.Errorf("%s: stats %+v do not show the method's executor ran", m, res.Stats)
		}
	}
}

// TestYannakakisFacade is the classical algorithm's contract, checked
// through Run(MethodYannakakis): oracle answers on acyclic queries,
// Boolean and not, connected and not; inconsistency detected by the
// sweeps alone.
func TestYannakakisFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	db := instance.ColorDatabase(3)
	two := graph.New(4) // two disconnected edges
	two.AddEdge(0, 1)
	two.AddEdge(2, 3)
	for _, g := range []*graph.Graph{graph.Path(6), graph.AugmentedPath(4), graph.AugmentedPath(6), two} {
		for _, free := range [][]cq.Var{
			instance.BooleanFree(g),
			instance.ChooseFree(instance.EdgeVertices(g), 0.2, rng),
		} {
			q, err := instance.ColorQuery(g, free)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(context.Background(), MethodYannakakis, q, db, ExecOptions{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := engine.EvalOracle(q, db)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Rel.Equal(want) {
				t.Fatalf("%v free=%v: Yannakakis %v != oracle %v", g, free, got, want)
			}
		}
	}

	// A successor relation {(0,1),(1,2)}: the three-step chain has no
	// solution and the sweeps must delete tuples to find that out; the
	// two-step chain is satisfied exactly by x0 = 0.
	next := relation.New([]relation.Attr{0, 1})
	next.Add(relation.Tuple{0, 1})
	next.Add(relation.Tuple{1, 2})
	sdb := cq.Database{"next": next}
	chain := func(steps int) *cq.Query {
		q := &cq.Query{Free: []cq.Var{0}}
		for i := 0; i < steps; i++ {
			q.Atoms = append(q.Atoms, cq.Atom{Rel: "next", Args: []cq.Var{cq.Var(i), cq.Var(i + 1)}})
		}
		return q
	}
	res, err := Run(context.Background(), MethodYannakakis, chain(3), sdb, ExecOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rel.Empty() || res.Stats.ReducedTuples == 0 {
		t.Fatalf("3-step chain over a 2-step successor: answer %v, reduced %d; want empty, found by reduction",
			res.Rel, res.Stats.ReducedTuples)
	}
	got, err := Run(context.Background(), MethodYannakakis, chain(2), sdb, ExecOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rel.Len() != 1 || !got.Rel.Contains(relation.Tuple{0}) {
		t.Fatalf("2-step chain = %v, want exactly x0=0", got.Rel)
	}
}

// TestUnboundHeadVariableIsNamed: a head variable that no atom binds is
// the caller's error, reported by name before any tree is built — it used
// to surface as Algorithm 3 producing an invalid tree — both through the
// leapfrog join's entry point and through Run, for every executor that
// analyzes the query.
func TestUnboundHeadVariableIsNamed(t *testing.T) {
	q := &cq.Query{Atoms: []cq.Atom{{Rel: "edge", Args: []cq.Var{0, 1}}}, Free: []cq.Var{0, 7}}
	db := ColorDatabase(3)
	check := func(entry string, res *engine.Result, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "free variable x7 occurs in no atom") || errors.Is(err, engine.ErrInternal) {
			t.Errorf("%s: error %v, want the unbound variable x7 named", entry, err)
		}
		if res != nil && res.Rel != nil {
			t.Errorf("%s: a refused query answered %v", entry, res.Rel)
		}
	}
	res, err := engine.ExecWCOJContext(context.Background(), q, db, engine.Options{})
	if res == nil {
		t.Error("ExecWCOJContext: nil Result")
	}
	check("ExecWCOJContext", res, err)
	for _, m := range []Method{MethodYannakakis, MethodStream, MethodWCOJ} {
		res, err := Run(context.Background(), m, q, db, ExecOptions{}, nil)
		check("Run("+string(m)+")", res, err)
	}
}
