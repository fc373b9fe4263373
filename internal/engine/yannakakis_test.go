package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/faultinject"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/jointree"
	"projpush/internal/relation"
	"projpush/internal/resilience"
)

// yannakakisWorkloads is the acyclic/low-width grid the differential
// tests sweep: the Figure-6–9 families at small orders, plus trees and
// stars (genuinely acyclic join graphs).
func yannakakisWorkloads(t testing.TB) []struct {
	name string
	g    *graph.Graph
} {
	t.Helper()
	star := graph.New(8)
	for i := 1; i < 8; i++ {
		star.AddEdge(0, i)
	}
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(10)},
		{"star", star},
		{"fig6-augpath", graph.AugmentedPath(8)},
		{"fig7-ladder", graph.Ladder(6)},
		{"fig8-augladder", graph.AugmentedLadder(4)},
		{"fig9-augcircladder", graph.AugmentedCircularLadder(4)},
	}
}

// TestYannakakisDifferential pins the full reducer to the backtracking
// oracle and to the bucket-elimination plan, Boolean and non-Boolean,
// across the structured workload grid: identical relations, and the
// exact free-variable column order.
func TestYannakakisDifferential(t *testing.T) {
	db := instance.ColorDatabase(3)
	for _, wl := range yannakakisWorkloads(t) {
		for _, frac := range []float64{0, 0.25} {
			name := fmt.Sprintf("%s/free=%v", wl.name, frac)
			rng := rand.New(rand.NewSource(17))
			var free []cq.Var
			if frac > 0 {
				free = instance.ChooseFree(instance.EdgeVertices(wl.g), frac, rng)
			} else {
				free = instance.BooleanFree(wl.g)
			}
			q, err := instance.ColorQuery(wl.g, free)
			if err != nil {
				t.Fatal(err)
			}
			res, err := engine.ExecYannakakisContext(context.Background(), q, db, engine.Options{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := engine.EvalOracle(q, db)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Rel.Equal(want) {
				t.Fatalf("%s: yannakakis %v != oracle %v", name, res.Rel, want)
			}
			be, err := engine.Exec(buildPlan(t, core.MethodBucketElimination, q), db, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Rel.Equal(be.Rel) {
				t.Fatalf("%s: yannakakis %v != bucket elimination %v", name, res.Rel, be.Rel)
			}
			for i, v := range q.Free {
				if res.Rel.Attrs()[i] != relation.Attr(v) {
					t.Fatalf("%s: result attrs %v, want exact free order %v", name, res.Rel.Attrs(), q.Free)
				}
			}
		}
	}
}

// TestYannakakisRandomGraphs sweeps random graphs (cyclic included —
// the tree decomposition handles any width) against the oracle.
func TestYannakakisRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	db := instance.ColorDatabase(3)
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(6)
		m := n - 1 + rng.Intn(n)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g, err := graph.Random(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		if g.M() == 0 {
			continue
		}
		free := instance.ChooseFree(instance.EdgeVertices(g), 0.3, rng)
		if len(free) == 0 {
			free = instance.BooleanFree(g)
		}
		q, err := instance.ColorQuery(g, free)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.ExecYannakakisContext(context.Background(), q, db, engine.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := engine.EvalOracle(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Rel.Equal(want) {
			t.Fatalf("trial %d: yannakakis %v != oracle %v", trial, res.Rel, want)
		}
	}
}

// selectiveChain builds the workload where reduction matters: a chain
// R1(x0,x1) ⋈ R2(x1,x2) ⋈ R3(x2,x3) with wide random R1, R2 and a
// one-tuple R3, so the sweeps delete almost everything before phase 5.
func selectiveChain(rows int) (*cq.Query, cq.Database) {
	rng := rand.New(rand.NewSource(5))
	r1 := relation.New([]relation.Attr{0, 1})
	r2 := relation.New([]relation.Attr{0, 1})
	for i := 0; i < rows; i++ {
		r1.Add(relation.Tuple{relation.Value(rng.Intn(rows)), relation.Value(rng.Intn(50))})
		r2.Add(relation.Tuple{relation.Value(rng.Intn(50)), relation.Value(rng.Intn(50))})
	}
	r3 := relation.New([]relation.Attr{0, 1})
	r3.Add(relation.Tuple{r2.SortedTuples()[0][1], 0})
	q := &cq.Query{
		Atoms: []cq.Atom{
			{Rel: "r1", Args: []cq.Var{0, 1}},
			{Rel: "r2", Args: []cq.Var{1, 2}},
			{Rel: "r3", Args: []cq.Var{2, 3}},
		},
		Free: []cq.Var{0, 3},
	}
	return q, cq.Database{"r1": r1, "r2": r2, "r3": r3}
}

// TestYannakakisReducedTuples checks the new counters: a selective
// acyclic chain must report semijoin deletions, and the run must agree
// with the oracle.
func TestYannakakisReducedTuples(t *testing.T) {
	q, db := selectiveChain(2000)
	res, err := engine.ExecYannakakisContext(context.Background(), q, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ReducedTuples == 0 {
		t.Fatal("selective chain: ReducedTuples = 0, want > 0")
	}
	if res.Stats.MaterializedTuples == 0 {
		t.Fatal("MaterializedTuples = 0, want > 0 (phase 5 writes the answer)")
	}
	want, err := engine.EvalOracle(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rel.Equal(want) {
		t.Fatalf("reduced run %v != oracle %v", res.Rel, want)
	}

	// The plan walker never semijoins: its ReducedTuples stays zero.
	be, err := engine.Exec(buildPlan(t, core.MethodBucketElimination, q), db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if be.Stats.ReducedTuples != 0 {
		t.Fatalf("plan executor ReducedTuples = %d, want 0", be.Stats.ReducedTuples)
	}
	if be.Stats.MaterializedTuples == 0 {
		t.Fatal("plan executor MaterializedTuples = 0, want > 0")
	}
}

// TestYannakakisLimits drives the sweep into each governed failure mode
// and checks the classification matches the plan executors' sentinels,
// with a non-nil Result carrying partial stats every time.
func TestYannakakisLimits(t *testing.T) {
	q, db := figure9(t, 6)

	res, err := engine.ExecYannakakisContext(context.Background(), q, db, engine.Options{MaxRows: 1})
	if !errors.Is(err, engine.ErrRowLimit) {
		t.Fatalf("MaxRows=1: err = %v, want ErrRowLimit", err)
	}
	if res == nil {
		t.Fatal("failed run must return a non-nil Result")
	}

	if _, err = engine.ExecYannakakisContext(context.Background(), q, db, engine.Options{MaxBytes: 64}); !errors.Is(err, engine.ErrMemLimit) {
		t.Fatalf("MaxBytes=64: err = %v, want ErrMemLimit", err)
	}

	if _, err = engine.ExecYannakakisContext(context.Background(), q, db, engine.Options{Timeout: time.Nanosecond}); !errors.Is(err, engine.ErrTimeout) {
		t.Fatalf("Timeout=1ns: err = %v, want ErrTimeout", err)
	}

	// Panic isolation: a nil relation makes the bind panic inside the
	// sweep; RecoverPanic must surface it as ErrInternal, not crash.
	poisoned := cq.Database{"edge": nil}
	if _, err = engine.ExecYannakakisContext(context.Background(), q, poisoned, engine.Options{}); !errors.Is(err, engine.ErrInternal) {
		t.Fatalf("nil relation: err = %v, want ErrInternal", err)
	}

	// The semijoin kernels carry their own allocation fault point.
	if err := faultinject.Enable("semijoin.alloc=1", 1); err != nil {
		t.Fatal(err)
	}
	_, err = engine.ExecYannakakisContext(context.Background(), q, db, engine.Options{})
	faultinject.Disable()
	if !errors.Is(err, engine.ErrMemLimit) {
		t.Fatalf("injected semijoin alloc failure: err = %v, want ErrMemLimit", err)
	}
}

// TestYannakakisRungDegrades checks the Run-style first rung composes
// with the plan ladder: a width cap the reducer blows is rescued by the
// fallback rungs, with the full attempt history recorded.
func TestYannakakisRungDegrades(t *testing.T) {
	q, db := figure9(t, 4)
	if err := faultinject.Enable("semijoin.alloc=1", 1); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()
	first, ladder := resilience.Strategy(core.MethodYannakakis, analyze(t, q), nil)
	res, err := engine.ExecResilientStrategy(context.Background(), first, ladder(nil), db, engine.Options{})
	if err != nil {
		t.Fatalf("ladder should rescue the poisoned reducer: %v", err)
	}
	if len(res.Stats.Attempts) < 2 {
		t.Fatalf("attempts = %+v, want yannakakis failure then a plan rung", res.Stats.Attempts)
	}
	if res.Stats.Attempts[0].Method != string(core.MethodYannakakis) ||
		!strings.Contains(res.Stats.Attempts[0].Err, engine.ErrMemLimit.Error()) {
		t.Fatalf("first attempt = %+v, want failed yannakakis rung", res.Stats.Attempts[0])
	}
	want, err := engine.EvalOracle(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rel.Equal(want) {
		t.Fatalf("degraded answer %v != oracle %v", res.Rel, want)
	}
}

// TestExplainYannakakis checks both renderings: the static tree and the
// analyzed sweep with its seed, per-bag counts, the semijoins each phase
// ran and skipped, and the reduced/materialized footer.
func TestExplainYannakakis(t *testing.T) {
	q, db := selectiveChain(200)
	static, err := engine.NewYannakakis(analyze(t, q)).Explain(db, engine.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(static, "yannakakis full reducer") || !strings.Contains(static, "bag") {
		t.Fatalf("static explain missing structure:\n%s", static)
	}
	if strings.Contains(static, "reduced:") || strings.Contains(static, "seed") {
		t.Fatalf("static explain must not carry analyze annotations:\n%s", static)
	}
	analyzed, err := engine.NewYannakakis(analyze(t, q)).Explain(db, engine.Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"reduced:", "materialized:", "seed {", "⋉→", "⋉↑", "⋉↓", "semijoins: ⋉→ ran="} {
		if !strings.Contains(analyzed, want) {
			t.Fatalf("analyzed explain missing %q:\n%s", want, analyzed)
		}
	}
}

// BenchmarkJoinTreeBuild is a query's structural analysis
// (jointree.Analyze) on augmented-ladder-40, the widest of the end-to-end
// benchmark's structured texts: MCS order, induced decomposition,
// Mark-and-Sweep, Algorithm 3 and its validation. A server pays it once
// per distinct query text.
func BenchmarkJoinTreeBuild(b *testing.B) {
	g := graph.AugmentedLadder(40)
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jointree.Analyze(q); err != nil {
			b.Fatal(err)
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
