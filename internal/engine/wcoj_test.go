package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"projpush/internal/cq"
	"projpush/internal/faultinject"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/jointree"
	"projpush/internal/relation"
)

// TestDifferentialWCOJFigureWorkloads runs the Figure-6–9 structured
// workloads — Boolean and with a free-variable sample — through the
// worst-case-optimal executor and checks the result against the
// backtracking oracle.
func TestDifferentialWCOJFigureWorkloads(t *testing.T) {
	db := instance.ColorDatabase(3)
	rng := rand.New(rand.NewSource(11))
	for _, w := range figureWorkloads(t) {
		for _, mode := range []string{"boolean", "free"} {
			t.Run(fmt.Sprintf("%s/%s", w.name, mode), func(t *testing.T) {
				free := instance.BooleanFree(w.g)
				if mode == "free" {
					free = instance.ChooseFree(instance.EdgeVertices(w.g), 0.4, rng)
				}
				q, err := instance.ColorQuery(w.g, free)
				if err != nil {
					t.Fatal(err)
				}
				res, err := ExecWCOJContext(context.Background(), q, db, Options{})
				if err != nil {
					t.Fatal(err)
				}
				want, err := EvalOracle(q, db)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Rel.Equal(want) {
					t.Fatalf("wcoj result differs from oracle (%d vs %d rows)",
						res.Rel.Len(), want.Len())
				}
				if res.Stats.Seeks == 0 {
					t.Error("leapfrog run recorded no seeks")
				}
				if res.Stats.Joins != 1 {
					t.Errorf("Joins = %d, want 1 (one multiway join)", res.Stats.Joins)
				}
			})
		}
	}
}

// TestWCOJStepBudget: a run given fewer seeks than it needs fails with
// ErrWorkLimit, which degrades, and a run given as many as it took, or no
// budget, answers.
func TestWCOJStepBudget(t *testing.T) {
	db := instance.ColorDatabase(3)
	g := graph.AugmentedCircularLadder(10)
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	s := mustAnalyze(t, q)
	full, err := NewWCOJ(s, 0).Run(context.Background(), db, Options{})
	if err != nil || full.Rel.Len() == 0 {
		t.Fatalf("unbudgeted: %v, %d rows", err, full.Rel.Len())
	}
	if _, err := NewWCOJ(s, full.Stats.Seeks/2).Run(context.Background(), db, Options{}); !errors.Is(err, ErrWorkLimit) || !Degradable(err) {
		t.Errorf("half the seeks it needs: %v, want a degradable ErrWorkLimit", err)
	}
	res, err := NewWCOJ(s, full.Stats.Seeks).Run(context.Background(), db, Options{})
	if err != nil || !res.Rel.Equal(full.Rel) {
		t.Errorf("the seeks it needs: %v", err)
	}
}

// TestWCOJLinearOnBooleanFamilies pins the premise of routing the paper's
// Boolean 3-COLOR families (Figures 6–9) to the leapfrog join: with one free
// variable, its existential levels stop at the first witness, so
// Seeks+Extensions grow linearly in the order — at most ×2.2 per doubling
// from 10 to 80 — on every family, cyclic or not, where an unmemoized
// backtracking search could go exponential. It does go super-linear with
// 20 % of the vertices free, which the server's size-only rule leaves to
// the cascade, and on an instance with no coloring, where every level
// backtracks (the server's TestFreeVarRouteWithoutWitness).
func TestWCOJLinearOnBooleanFamilies(t *testing.T) {
	db := instance.ColorDatabase(3)
	for _, f := range []struct {
		name string
		gen  func(int) *graph.Graph
	}{
		{"augpath", graph.AugmentedPath}, {"ladder", graph.Ladder},
		{"augladder", graph.AugmentedLadder}, {"augcircladder", graph.AugmentedCircularLadder},
	} {
		var work []int64
		for _, order := range []int{10, 20, 40, 80} {
			g := f.gen(order)
			q, err := instance.ColorQuery(g, instance.BooleanFree(g))
			if err != nil {
				t.Fatal(err)
			}
			res, err := ExecWCOJContext(context.Background(), q, db, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Rel.Len() == 0 {
				t.Fatalf("%s-%d: no coloring", f.name, order)
			}
			work = append(work, res.Stats.Seeks+res.Stats.Extensions)
		}
		for i := 1; i < len(work); i++ {
			if work[i] > work[i-1]*22/10 {
				t.Errorf("%s: Seeks+Extensions %v at orders 10, 20, 40, 80: ×%.2f from order %d to %d",
					f.name, work, float64(work[i])/float64(work[i-1]), 10<<(i-1), 10<<i)
			}
		}
	}
}

// TestDifferentialWCOJCyclicGraphs sweeps the cyclic shapes the
// executor exists for — cliques, cycles, wheels, and random graphs at
// several densities — under k-COLOR for k=3 and k=4, Boolean and
// enumerating, against the oracle. Cliques above the chromatic number
// pin the empty-answer path; k=4 makes several of them satisfiable.
func TestDifferentialWCOJCyclicGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"K4", graph.Complete(4)},
		{"K5", graph.Complete(5)},
		{"C5", graph.Cycle(5)},
		{"C7", graph.Cycle(7)},
		{"wheel6", graph.Wheel(6)},
	}
	for i := 0; i < 4; i++ {
		g, err := graph.RandomDensity(7, 0.35+0.15*float64(i), rng)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, struct {
			name string
			g    *graph.Graph
		}{fmt.Sprintf("rand7-%d", i), g})
	}
	for _, k := range []int{3, 4} {
		db := instance.ColorDatabase(k)
		for _, w := range graphs {
			for _, mode := range []string{"boolean", "free"} {
				t.Run(fmt.Sprintf("k%d/%s/%s", k, w.name, mode), func(t *testing.T) {
					free := instance.BooleanFree(w.g)
					if mode == "free" {
						free = instance.ChooseFree(instance.EdgeVertices(w.g), 0.5, rng)
					}
					q, err := instance.ColorQuery(w.g, free)
					if err != nil {
						t.Fatal(err)
					}
					res, err := ExecWCOJContext(context.Background(), q, db, Options{})
					if err != nil {
						t.Fatal(err)
					}
					want, err := EvalOracle(q, db)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Rel.Equal(want) {
						t.Fatalf("wcoj result differs from oracle (%d vs %d rows)",
							res.Rel.Len(), want.Len())
					}
				})
			}
		}
	}
}

// TestWCOJLimits drives the executor into each governor wall: the row
// cap, the byte budget, and the deadline, each surfacing as its typed
// sentinel.
func TestWCOJLimits(t *testing.T) {
	g := graph.Cycle(9)
	q, err := instance.ColorQuery(g, instance.EdgeVertices(g))
	if err != nil {
		t.Fatal(err)
	}
	db := instance.ColorDatabase(3)

	if _, err := ExecWCOJContext(context.Background(), q, db, Options{MaxRows: 5}); !errors.Is(err, ErrRowLimit) {
		t.Errorf("MaxRows=5: err = %v, want ErrRowLimit", err)
	}
	if _, err := ExecWCOJContext(context.Background(), q, db, Options{MaxBytes: 64}); !errors.Is(err, ErrMemLimit) {
		t.Errorf("MaxBytes=64: err = %v, want ErrMemLimit", err)
	}
	if _, err := ExecWCOJContext(context.Background(), q, db, Options{Timeout: time.Nanosecond}); !errors.Is(err, ErrTimeout) {
		t.Errorf("1ns timeout: err = %v, want ErrTimeout", err)
	}
}

// TestExplainWCOJ checks both renderings: the static variable order
// (existence levels marked ∃, no counters) and the EXPLAIN ANALYZE form
// with per-level seek/extension counts and the run trailers.
func TestExplainWCOJ(t *testing.T) {
	g := graph.Cycle(5)
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	db := instance.ColorDatabase(3)

	static, err := NewWCOJ(mustAnalyze(t, q), 0).Explain(db, Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(static, "wcoj leapfrog") || !strings.Contains(static, "∃") {
		t.Fatalf("static explain missing header or ∃ marks:\n%s", static)
	}
	if strings.Contains(static, "seeks=") {
		t.Fatalf("static explain must not carry counters:\n%s", static)
	}

	analyzed, err := NewWCOJ(mustAnalyze(t, q), 0).Explain(db, Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"seeks=", "extensions=", "seeks: total=", "indexes: 2 shared by 5 atoms", "memory:", "tuples:"} {
		if !strings.Contains(analyzed, want) {
			t.Fatalf("analyze explain missing %q:\n%s", want, analyzed)
		}
	}
}

// cycleOver is the n-cycle query rels[0](x0,x1), rels[1](x1,x2), …,
// rels[n-1](x(n-1),x0) with x0 free.
func cycleOver(rels ...string) *cq.Query {
	q := &cq.Query{Free: []cq.Var{0}}
	for i, rel := range rels {
		q.Atoms = append(q.Atoms, cq.Atom{Rel: rel, Args: []cq.Var{cq.Var(i), cq.Var((i + 1) % len(rels))}})
	}
	return q
}

// TestWCOJSharesIndexes: atoms over one stored relation in one column
// order share a sorted index — the triangle over e reads two (e by
// columns 0,1 for e(x0,x1) and e(x1,x2); by 1,0 for e(x2,x0)), the
// 4-cycle two — and the indexes are resident state of the arena, so a
// run's Stats.Bytes, PeakBytes and byte budget hold its output and
// nothing else. Against the same query over a private copy of e per
// atom, which shares nothing, the answer, Seeks, Extensions and bytes
// are identical.
func TestWCOJSharesIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := relation.New([]relation.Attr{0, 1})
	for e.Len() < 2000 {
		e.Add(relation.Tuple{relation.Value(rng.Intn(300)), relation.Value(rng.Intn(300))})
	}
	db := cq.Database{"e": e}
	for _, n := range []int{3, 4} {
		var shared, private []string
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("e%d", i)
			db[name] = e.Clone()
			shared, private = append(shared, "e"), append(private, name)
		}
		res, ex, err := execWCOJ(context.Background(), mustAnalyze(t, cycleOver(shared...)), 0, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		apart, exApart, err := execWCOJ(context.Background(), mustAnalyze(t, cycleOver(private...)), 0, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ex.indexes != 2 || exApart.indexes != n {
			t.Errorf("%d-cycle: read %d indexes over e and %d over %d copies, want 2 and %d", n, ex.indexes, exApart.indexes, n, n)
		}
		if !res.Rel.Equal(apart.Rel) || res.Stats.Seeks != apart.Stats.Seeks || res.Stats.Extensions != apart.Stats.Extensions {
			t.Errorf("%d-cycle: sharing changed the run: %d rows %d seeks %d extensions, apart %d rows %d seeks %d extensions", n,
				res.Rel.Len(), res.Stats.Seeks, res.Stats.Extensions, apart.Rel.Len(), apart.Stats.Seeks, apart.Stats.Extensions)
		}
		for _, r := range []*Result{res, apart} {
			if want := r.Rel.Bytes(); r.Stats.Bytes != want || r.Stats.PeakBytes != want {
				t.Errorf("%d-cycle: Bytes %d PeakBytes %d, want the output only = %d", n, r.Stats.Bytes, r.Stats.PeakBytes, want)
			}
		}

		q := cycleOver(shared...)
		if _, err := ExecWCOJContext(context.Background(), q, db, Options{MaxBytes: res.Stats.Bytes}); err != nil {
			t.Errorf("%d-cycle: a budget of the output (%d) refused the run: %v", n, res.Stats.Bytes, err)
		}
		if _, err := ExecWCOJContext(context.Background(), q, db, Options{MaxBytes: res.Stats.Bytes - 1}); !errors.Is(err, ErrMemLimit) {
			t.Errorf("%d-cycle: one byte under the output: err = %v, want ErrMemLimit", n, err)
		}
	}
}

// TestWCOJResidentIndexesConcurrent runs the triangle over one stored e
// from 8 goroutines at once, under -race in `make test` and CI. They share
// one leapfrog join, the state NewWCOJ's Fallback closes over, whose plan
// a static Explain has built (and no index): each runs it once directly
// and once through the Fallback. Every run gets the same answer and Seeks
// and reads that plan, and all of them read exactly one index per (arena,
// column order) — two, built once, the same pointers in every run — whose
// bytes the arena reports.
func TestWCOJResidentIndexesConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	e := relation.New([]relation.Attr{0, 1})
	for e.Len() < 3000 {
		e.Add(relation.Tuple{relation.Value(rng.Intn(200)), relation.Value(rng.Intn(200))})
	}
	db := cq.Database{"e": e}
	s := mustAnalyze(t, cycleOver("e", "e", "e"))
	want, err := EvalOracle(s.Query, db)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 8
	results := make([]*Result, runs)
	execs := make([]*wexec, runs)
	shared := &leapfrog{s: s}
	f := shared.fallback()
	if _, err := f.Explain(db, Options{}, false); err != nil || e.ResidentIndexBytes() != 0 {
		t.Fatalf("a static Explain: %v, %d resident index bytes, want none", err, e.ResidentIndexBytes())
	}
	var wg sync.WaitGroup
	for g := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if results[g], execs[g], err = shared.exec(context.Background(), db, Options{}); err != nil {
				t.Error(err)
			}
			if res, err := f.Run(context.Background(), db, Options{}); err != nil || !res.Rel.Equal(want) {
				t.Errorf("run %d through the Fallback: %v", g, err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	distinct := map[*relation.SortedIndex]bool{}
	for g := range runs {
		if !results[g].Rel.Equal(want) || results[g].Stats.Seeks != results[0].Stats.Seeks {
			t.Errorf("run %d: %d rows %d seeks, want the oracle's %d rows and run 0's %d seeks",
				g, results[g].Rel.Len(), results[g].Stats.Seeks, want.Len(), results[0].Stats.Seeks)
		}
		if execs[g].p != shared.held.Load() {
			t.Errorf("run %d read a plan of its own", g)
		}
		for k, ix := range execs[g].ix {
			distinct[ix] = true
			if ix != execs[0].ix[k] {
				t.Errorf("run %d atom %s reads a different index than run 0", g, &s.Query.Atoms[k])
			}
		}
	}
	if len(distinct) != 2 || execs[0].indexes != 2 {
		t.Errorf("%d runs read %d distinct indexes (run 0 counts %d), want 2: one per column order of e", runs, len(distinct), execs[0].indexes)
	}
	// Each index is e's two columns, its run bitmaps, 200 runs of 4 words,
	// and its start offsets, one for each of the values 0…199.
	if got, want := e.ResidentIndexBytes(), 2*(int64(e.Len())*2*4+200*4*8+200*4); got != want {
		t.Errorf("e holds %d resident index bytes, want two 2-column indexes = %d", got, want)
	}
}

// TestWCOJIndexInvalidatedByInsert: an insert into a stored relation
// after its index is built drops the index with the arena's other facts,
// so the next run reads a fresh one and answers like the oracle over the
// new rows.
func TestWCOJIndexInvalidatedByInsert(t *testing.T) {
	e := relation.New([]relation.Attr{0, 1})
	for v := relation.Value(0); v <= 40; v++ {
		e.Add(relation.Tuple{v, v + 1}) // a path 0 → … → 41: no triangle
	}
	db := cq.Database{"e": e}
	s := mustAnalyze(t, cycleOver("e", "e", "e"))
	before, ex, err := execWCOJ(context.Background(), s, 0, db, Options{})
	if err != nil || before.Rel.Len() != 0 {
		t.Fatalf("the path holds %d triangles (err %v), want none", before.Rel.Len(), err)
	}
	held := ex.ix[0]
	e.Add(relation.Tuple{41, 39}) // closes 39 → 40 → 41 → 39
	after, ex, err := execWCOJ(context.Background(), s, 0, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := EvalOracle(s.Query, db)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Rel.Equal(want) || want.Len() != 3 {
		t.Errorf("after the insert: %v, want the oracle's %v (3 rows)", after.Rel, want)
	}
	if ex.ix[0] == held {
		t.Error("the run after the insert read the index built before it")
	}
}

// TestWCOJFaultArmOnWarmIndex: the join.alloc fault point is drawn per
// run at the index lookup, so with the arm at rate 1 a run whose indexes
// are already resident still fails with ErrMemLimit — the arm cannot go
// silent because nothing is built any more.
func TestWCOJFaultArmOnWarmIndex(t *testing.T) {
	defer faultinject.Disable()
	q := cycleOver("e", "e", "e")
	db := cq.Database{"e": instance.ColorDatabase(3)["edge"]}
	if _, err := ExecWCOJContext(context.Background(), q, db, Options{}); err != nil {
		t.Fatal(err)
	}
	if db["e"].ResidentIndexBytes() == 0 {
		t.Fatal("the warm-up run left no resident index")
	}
	if err := faultinject.Enable("join.alloc=1", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := ExecWCOJContext(context.Background(), q, db, Options{}); !errors.Is(err, ErrMemLimit) {
		t.Fatalf("join.alloc=1 on a warm index: err = %v, want ErrMemLimit", err)
	}
	if faultinject.Calls(faultinject.AllocJoin) == 0 {
		t.Fatal("join.alloc was never drawn")
	}

	// The same through one Fallback, whose plan holds the warm index: the
	// draw is per run, not per plan.
	faultinject.Disable()
	f := NewWCOJ(mustAnalyze(t, q), 0)
	if _, err := f.Run(context.Background(), db, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Enable("join.alloc=1", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(context.Background(), db, Options{}); !errors.Is(err, ErrMemLimit) {
		t.Fatalf("join.alloc=1 on a held plan: err = %v, want ErrMemLimit", err)
	}
	if faultinject.Calls(faultinject.AllocJoin) == 0 {
		t.Fatal("join.alloc was never drawn on a held plan")
	}
}

// TestWCOJPlanNeverStale runs one Fallback over a database A, again over
// A, over a database B that binds t to a smaller relation with other rows,
// over A again, and over A after an insert into r. The second run reuses
// the first's plan; the others find the held plan stale and build their
// own. Every answer is the
// oracle's, and every static Explain is what a fresh Fallback renders for
// that database: A and B put the existential variables in opposite orders.
func TestWCOJPlanNeverStale(t *testing.T) {
	rows := func(xs, ys []relation.Value) *relation.Relation {
		r := relation.New([]relation.Attr{0, 1})
		for _, x := range xs {
			for _, y := range ys {
				r.Add(relation.Tuple{x, y})
			}
		}
		return r
	}
	span := func(lo, hi relation.Value) (vs []relation.Value) {
		for v := lo; v < hi; v++ {
			vs = append(vs, v)
		}
		return vs
	}
	// r(x0,x1) s(x1,x2) t(x2,x0): in A x1's domain (|r| = 10) is under
	// x2's (|s| = 100), in B x2's (|t| = 6) is under x1's.
	a := cq.Database{"r": rows(span(10, 15), span(0, 2)), "s": rows(span(0, 10), span(0, 10)), "t": rows(span(0, 10), span(10, 30))}
	b := cq.Database{"r": a["r"], "s": a["s"], "t": rows(span(0, 3), span(10, 12))}
	s := mustAnalyze(t, cycleOver("r", "s", "t"))
	l := &leapfrog{s: s}
	f := l.fallback()
	run := func(name string, db cq.Database) (*wplan, string) {
		t.Helper()
		res, err := f.Run(context.Background(), db, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want, err := EvalOracle(s.Query, db); err != nil || !res.Rel.Equal(want) {
			t.Errorf("%s: %d rows, want the oracle's %d (err %v)", name, res.Rel.Len(), want.Len(), err)
		}
		got, err := f.Explain(db, Options{}, false)
		if err != nil {
			t.Fatal(err)
		}
		if fresh, _ := NewWCOJ(s, 0).Explain(db, Options{}, false); got != fresh {
			t.Errorf("%s: the held plan explains\n%s\na fresh one\n%s", name, got, fresh)
		}
		return l.held.Load(), got
	}
	planA, explainA := run("A", a)
	if again, _ := run("A again", a); again != planA {
		t.Error("a run over the same arenas built a new plan")
	}
	planB, explainB := run("B", b)
	if planB == planA || explainB == explainA {
		t.Errorf("B ran on A's plan, or in A's order:\n%s", explainB)
	}
	if back, _ := run("A after B", a); back == planB {
		t.Error("A ran on B's plan")
	}
	held := l.held.Load()
	a["r"].Add(relation.Tuple{20, 0}) // with t(0,20) and s(0,0): answer 20
	if after, _ := run("A after an insert into r", a); after == held {
		t.Error("the run after an insert reused the plan built before it")
	}
}

// TestWCOJWarmRunAllocs: a warm run — one Fallback whose plan is built and
// whose indexes are resident — allocates a few flat slices of per-request
// state, so augladder-40 allocates no more per run than augladder-5 plus
// a small constant, where binding the atoms per run allocated per atom.
func TestWCOJWarmRunAllocs(t *testing.T) {
	db := instance.ColorDatabase(3)
	allocs := func(order int) float64 {
		g := graph.AugmentedLadder(order)
		q, err := instance.ColorQuery(g, instance.BooleanFree(g))
		if err != nil {
			t.Fatal(err)
		}
		f := NewWCOJ(mustAnalyze(t, q), 0)
		run := func() {
			if _, err := f.Run(context.Background(), db, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		run()
		return testing.AllocsPerRun(20, run)
	}
	if small, large := allocs(5), allocs(40); large > small+4 {
		t.Errorf("a warm run allocates %.0f times on augladder-40 and %.0f on augladder-5: per-request allocations grow with the atoms", large, small)
	}
}

// execWCOJ is one run of s on a leapfrog join of its own, returning the
// run's state.
func execWCOJ(ctx context.Context, s *jointree.Structure, steps int64, db cq.Database, opt Options) (*Result, *wexec, error) {
	return (&leapfrog{s: s, steps: steps}).exec(ctx, db, opt)
}

// mustAnalyze is jointree.Analyze for a query the test knows is valid.
func mustAnalyze(t testing.TB, q *cq.Query) *jointree.Structure {
	t.Helper()
	s, err := jointree.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWCOJBitmapLevelsMatchGalloping runs each query twice: over its
// database, where the dense binary relations' indexes keep run bitmaps and
// leapfrog intersects their last columns by ANDing words, and over the
// same database with every value v stretched to 1000·v. Stretching keeps
// the order of values and the sizes the variable order reads, so leapfrog
// makes the same search, but no index's bitmaps fit their size rule, so
// every level gallops. The answers, mapped back, and every level's
// extensions must be equal, and both answers must be the oracle's. The
// queries are the triangle and the 4-cycle, the Figure 6–9 families under
// 3-COLOR, and random queries over random binary relations with 0–3 free
// variables.
func TestWCOJBitmapLevelsMatchGalloping(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	type tcase struct {
		name string
		q    *cq.Query
		db   cq.Database
	}
	dense := cq.Database{"e": randomRel(rng, 1500, 80)}
	cases := []tcase{
		{"triangle/x", cycleOver("e", "e", "e"), dense},
		{"cycle4/x", cycleOver("e", "e", "e", "e"), dense},
	}
	xy := cycleOver("e", "e", "e")
	xy.Free = []cq.Var{0, 1}
	cases = append(cases, tcase{"triangle/x,y", xy, dense})
	colors := instance.ColorDatabase(3)
	for _, w := range figureWorkloads(t) {
		for _, free := range [][]cq.Var{instance.BooleanFree(w.g), instance.ChooseFree(instance.EdgeVertices(w.g), 0.4, rng)} {
			q, err := instance.ColorQuery(w.g, free)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, tcase{fmt.Sprintf("%s/%d-free", w.name, len(free)), q, colors})
		}
	}
	rels := cq.Database{"r0": randomRel(rng, 300, 30), "r1": randomRel(rng, 200, 30), "r2": randomRel(rng, 400, 40)}
	for i := 0; i < 24; i++ {
		q, n := &cq.Query{}, 3+rng.Intn(4)
		for len(q.Atoms) < n {
			x, y := cq.Var(rng.Intn(5)), cq.Var(rng.Intn(5))
			if x != y {
				q.Atoms = append(q.Atoms, cq.Atom{Rel: fmt.Sprintf("r%d", rng.Intn(3)), Args: []cq.Var{x, y}})
			}
		}
		vars := q.Vars()
		rng.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
		q.Free = vars[:min(i%4, len(vars))]
		cases = append(cases, tcase{fmt.Sprintf("random-%d/%d-free", i, len(q.Free)), q, rels})
	}

	stretch := func(db cq.Database, k relation.Value) cq.Database {
		out := cq.Database{}
		for name, r := range db {
			s := relation.New(r.Attrs())
			for _, tup := range r.Tuples() {
				s.Add(relation.Tuple{tup[0] * k, tup[1] * k})
			}
			out[name] = s
		}
		return out
	}
	withBits := 0
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := mustAnalyze(t, c.q)
			res, ex, err := execWCOJ(context.Background(), s, 0, c.db, Options{})
			if err != nil {
				t.Fatal(err)
			}
			far, farEx, err := execWCOJ(context.Background(), s, 0, stretch(c.db, 1000), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if slices.Contains(farEx.p.bitsAt, true) {
				t.Fatal("a level over the stretched values intersects bitmaps")
			}
			if slices.Contains(ex.p.bitsAt, true) {
				withBits++
			}
			want, err := EvalOracle(c.q, c.db)
			if err != nil {
				t.Fatal(err)
			}
			back := relation.New(far.Rel.Attrs())
			for _, tup := range far.Rel.Tuples() {
				u := tup.Clone()
				for i := range u {
					u[i] /= 1000
				}
				back.Add(u)
			}
			if !res.Rel.Equal(want) || !back.Equal(want) {
				t.Fatalf("bitmaps answer %d rows, galloping %d, the oracle %d", res.Rel.Len(), back.Len(), want.Len())
			}
			if !slices.Equal(ex.extensions, farEx.extensions) {
				t.Fatalf("extensions per level %v with bitmaps, %v galloping", ex.extensions, farEx.extensions)
			}
		})
	}
	if withBits == 0 {
		t.Error("no level of any query intersected bitmaps")
	}
}
