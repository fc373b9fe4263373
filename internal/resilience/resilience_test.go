package resilience_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/jointree"
	"projpush/internal/relation"
	"projpush/internal/resilience"
)

// chain is a path of binary atoms r0(x0,x1) … over random relations; the
// head r0 has headRows tuples (few: selective; zero: the answer is empty).
func chain(atoms, rows, dom, headRows int) (*cq.Query, cq.Database) {
	rng := rand.New(rand.NewSource(7))
	db := cq.Database{}
	q := &cq.Query{Free: []cq.Var{0, 1}}
	for i := 0; i < atoms; i++ {
		n := rows
		if i == 0 {
			n = headRows
		}
		rel := relation.New([]relation.Attr{0, 1})
		for j := 0; j < n; j++ {
			rel.Add(relation.Tuple{relation.Value(rng.Intn(dom)), relation.Value(rng.Intn(dom))})
		}
		name := fmt.Sprintf("r%d", i)
		db[name] = rel
		q.Atoms = append(q.Atoms, cq.Atom{Rel: name, Args: []cq.Var{cq.Var(i), cq.Var(i + 1)}})
	}
	return q, db
}

// TestStrategyRunsAndExplainsItsExecutor drives the one method → executor
// mapping from every side a call site uses it: each method's strategy, run
// directly and as the first rung of its ladder, must return the oracle's
// answer, lead the attempt history under its own name, and explain the
// executor it ran — the explain's header names it and the counters of its
// ANALYZE trailer are the run's own. The whole map is five rows: a plan
// method somebody named (Strategy) runs on the walker, the same method as
// a route nobody named (Routed) on the pull pipeline, and yannakakis,
// stream and wcoj on their own executor either way.
func TestStrategyRunsAndExplainsItsExecutor(t *testing.T) {
	cyc, err := instance.ColorQuery(graph.Cycle(5), []cq.Var{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	selQ, selDB := chain(5, 60, 30, 3)
	emptyQ, emptyDB := chain(4, 40, 20, 0)
	instances := []struct {
		name string
		q    *cq.Query
		db   cq.Database
	}{
		{"cyclic", cyc, instance.ColorDatabase(3)},
		{"acyclic-selective", selQ, selDB},
		{"empty-relation", emptyQ, emptyDB},
	}
	// What each executor's explain looks like: its first line, and the
	// trailer line its ANALYZE prints from the run's stats.
	planWalker := func(st engine.Stats) (string, string) {
		return "arity=", fmt.Sprintf("memory: %d bytes materialized, peak %d live", st.Bytes, st.PeakBytes)
	}
	executor := map[core.Method]func(engine.Stats) (string, string){
		core.MethodYannakakis: func(st engine.Stats) (string, string) {
			return "yannakakis full reducer", fmt.Sprintf("reduced: %d tuples removed by semijoins", st.ReducedTuples)
		},
		core.MethodStream: func(st engine.Stats) (string, string) {
			return "stream pipeline", fmt.Sprintf("tuples: materialized=%d reduced=%d", st.MaterializedTuples, st.ReducedTuples)
		},
		core.MethodWCOJ: func(st engine.Stats) (string, string) {
			return "wcoj leapfrog", fmt.Sprintf("seeks: total=%d extensions=%d", st.Seeks, st.Extensions)
		},
	}
	methods := append(append([]core.Method(nil), core.Methods...), core.Strategies...)
	ctx := context.Background()
	for _, in := range instances {
		want, err := engine.EvalOracle(in.q, in.db)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range methods {
			p, err := core.BuildPlan(m, in.q, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, routed := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/routed=%v", in.name, m, routed)
				strategy, ladder := resilience.Strategy(m, analyze(t, in.q), p)
				describe := executor[m]
				if describe == nil {
					describe = planWalker
				}
				if routed {
					strategy, ladder = resilience.Routed(m, analyze(t, in.q), p)
					if executor[m] == nil {
						describe = executor[core.MethodStream]
					}
				}
				if strategy.Name != string(m) {
					t.Fatalf("%s: strategy is named %q", name, strategy.Name)
				}
				direct, err := strategy.Run(ctx, in.db, engine.Options{})
				if err != nil {
					t.Fatalf("%s direct: %v", name, err)
				}
				resilient, err := engine.ExecResilientStrategy(ctx, strategy, ladder(nil), in.db, engine.Options{})
				if err != nil {
					t.Fatalf("%s resilient: %v", name, err)
				}
				if !direct.Rel.Equal(want) || !resilient.Rel.Equal(want) {
					t.Fatalf("%s: direct %v, resilient %v, oracle %v", name, direct.Rel, resilient.Rel, want)
				}
				if at := resilient.Stats.Attempts; len(at) != 1 || at[0].Method != string(m) || at[0].Err != "" {
					t.Fatalf("%s: attempts %+v, want the strategy alone, succeeding", name, at)
				}
				if len(direct.Stats.Attempts) != 0 {
					t.Fatalf("%s: a direct run recorded attempts %+v", name, direct.Stats.Attempts)
				}
				text, err := strategy.Explain(in.db, engine.Options{}, true)
				if err != nil {
					t.Fatalf("%s explain: %v", name, err)
				}
				header, trailer := describe(direct.Stats)
				first, _, _ := strings.Cut(text, "\n")
				if !strings.Contains(first, header) || !strings.Contains(text, trailer) {
					t.Fatalf("%s: explain does not describe the run (want %q in the first line and %q):\n%s",
						name, header, trailer, text)
				}
			}
		}
	}
}

// analyze is jointree.Analyze for a query the test knows is valid.
func analyze(t testing.TB, q *cq.Query) *jointree.Structure {
	t.Helper()
	s, err := jointree.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
