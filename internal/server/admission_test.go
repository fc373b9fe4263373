package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/relation"
)

type testInstance struct {
	q  *cq.Query
	db cq.Database
}

// colorQuery builds the Boolean 3-COLOR query for a graph.
func colorQuery(t *testing.T, g *graph.Graph) *testInstance {
	t.Helper()
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		t.Fatalf("ColorQuery: %v", err)
	}
	return &testInstance{q: q, db: instance.ColorDatabase(3)}
}

func TestAssessWidths(t *testing.T) {
	in := colorQuery(t, graph.AugmentedPath(6))
	p, err := core.BuildPlan(core.MethodBucketElimination, in.q, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := assess(analyze(t, in.q), p, "bucketelimination", 0, 0, 0, false, in.db)
	if !v.Admitted {
		t.Fatalf("no thresholds set, want admitted, got %+v", v)
	}
	// The augmented path is a tree: treewidth 1; bucket elimination's
	// width is bounded by elimination width + 1 (Theorems 1–2).
	if v.ElimWidth != 1 {
		t.Errorf("ElimWidth = %d, want 1 (augmented path is a tree)", v.ElimWidth)
	}
	if v.PlanWidth > v.ElimWidth+1 {
		t.Errorf("PlanWidth %d exceeds elimination width + 1 = %d", v.PlanWidth, v.ElimWidth+1)
	}
	if v.AGMLog2 <= 0 {
		t.Errorf("AGMLog2 = %v, want positive for a nonempty join", v.AGMLog2)
	}

	// A width threshold below the plan width rejects.
	tight := assess(analyze(t, in.q), p, "bucketelimination", v.PlanWidth-1, 0, 0, false, in.db)
	if tight.Admitted {
		t.Errorf("threshold %d under plan width %d: want rejected", v.PlanWidth-1, v.PlanWidth)
	}
	// An AGM threshold below the bound rejects.
	agmTight := assess(analyze(t, in.q), p, "bucketelimination", 0, v.AGMLog2/2, 0, false, in.db)
	if agmTight.Admitted {
		t.Errorf("AGM threshold %v under bound %v: want rejected", v.AGMLog2/2, v.AGMLog2)
	}
	// A predicted-bytes threshold below the prediction rejects.
	if v.PredictedPeakBytes <= 1 {
		t.Fatalf("want a nonzero predicted peak, got %d", v.PredictedPeakBytes)
	}
	if peakTight := assess(analyze(t, in.q), p, "bucketelimination", 0, 0, v.PredictedPeakBytes-1, false, in.db); peakTight.Admitted {
		t.Errorf("byte threshold %d under prediction %d: want rejected", v.PredictedPeakBytes-1, v.PredictedPeakBytes)
	}
}

func TestAGMBound(t *testing.T) {
	// A single-atom query's AGM bound is exactly its relation's size.
	in := colorQuery(t, graph.Complete(2)) // one edge atom
	got := agmLog2(in.q, in.db)
	want := math.Log2(6) // 3-COLOR edge relation has 6 tuples
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("agmLog2(single atom) = %v, want %v", got, want)
	}
	// The bound is monotone in query size and sound: the true output of
	// the full join can never exceed 2^bound. For the triangle, the full
	// join (all proper 3-colorings) has 6 assignments; bound must be >=
	// log2(6).
	tri := colorQuery(t, graph.Complete(3))
	b := agmLog2(tri.q, tri.db)
	if b < math.Log2(6) {
		t.Errorf("triangle AGM bound 2^%v below true join size 6", b)
	}
	// An empty relation proves the join empty: bound 0.
	empty := colorQuery(t, graph.Complete(3))
	empty.db = instance.ColorDatabase(1) // k=1: no proper edge pairs
	if got := agmLog2(empty.q, empty.db); got != 0 {
		t.Errorf("agmLog2 with empty relation = %v, want 0", got)
	}
}

// TestBagBoundNotReportedForAcyclicQueries: the join graph's clique on the
// free variables puts all of r(x,y), r(y,z) with x, y, z free in one bag,
// whose bound equals the whole query's — and the query is acyclic, so the
// verdict carries neither bound and the size-only rule does not take it.
func TestBagBoundNotReportedForAcyclicQueries(t *testing.T) {
	r := relation.New([]relation.Attr{0, 1})
	for i := 0; i < 50; i++ {
		r.Add(relation.Tuple{relation.Value(i % 7), relation.Value(i)})
	}
	db := cq.Database{"r": r}
	q := &cq.Query{Free: []cq.Var{0, 1, 2}, Atoms: []cq.Atom{{Rel: "r", Args: []cq.Var{0, 1}}, {Rel: "r", Args: []cq.Var{1, 2}}}}
	s := New(Config{DB: db})
	method, _, v := routed(t, s, q, db)
	if v.ElimWidth != 2 || v.BagAGMLog2 != nil || v.FreeAGMLog2 != nil || method != core.MethodYannakakis {
		t.Errorf("acyclic path with three free variables: elim width %d, bounds bag %v free %v, route %s; want 2, none, yannakakis",
			v.ElimWidth, v.BagAGMLog2, v.FreeAGMLog2, method)
	}
}

// agmLog2Reference is the bound as first written — every round rescans
// every atom and recomputes its logarithm — kept as the oracle for the
// faster cover, whose value must match bit for bit because routing
// compares it with a threshold. It covers vars, nil for every variable;
// an empty relation anywhere empties the join.
func agmLog2Reference(q *cq.Query, db cq.Database, vars []cq.Var) float64 {
	if vars == nil {
		vars = q.Vars()
	}
	uncovered := make(map[cq.Var]bool)
	for _, v := range vars {
		uncovered[v] = true
	}
	for _, a := range q.Atoms {
		if rel := db[a.Rel]; rel != nil && rel.Len() == 0 && len(a.Args) > 0 {
			return 0
		}
	}
	var total float64
	for len(uncovered) > 0 {
		best, bestNew, bestLog := -1, 0, 0.0
		for i, a := range q.Atoms {
			n := 0
			for _, v := range a.Args {
				if uncovered[v] {
					n++
				}
			}
			if n == 0 {
				continue
			}
			rel := db[a.Rel]
			lg := 0.0
			if rel != nil && rel.Len() > 1 {
				lg = math.Log2(float64(rel.Len()))
			}
			if best < 0 || n > bestNew || (n == bestNew && lg < bestLog) {
				best, bestNew, bestLog = i, n, lg
			}
		}
		if best < 0 {
			break
		}
		for _, v := range q.Atoms[best].Args {
			delete(uncovered, v)
		}
		total += bestLog
	}
	return total
}

// TestAGMLog2MatchesReference is the property test: random queries over
// relations of assorted sizes (equal sizes force the index tie-break,
// empty and missing relations the early exits, repeated arguments the
// per-occurrence count), old against new, compared as bits, for the whole
// query and for a random subset of its variables, as a bag's bound is.
func TestAGMLog2MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		db := cq.Database{}
		nrels := 1 + rng.Intn(5)
		arity := make([]int, nrels)
		for r := range arity {
			arity[r] = 1 + rng.Intn(3)
			if rng.Intn(8) == 0 {
				continue // a relation the database does not hold
			}
			attrs := make([]relation.Attr, arity[r])
			for i := range attrs {
				attrs[i] = relation.Attr(i)
			}
			rel := relation.New(attrs)
			// Sizes collide on purpose; 1 in 12 relations is empty. Rows
			// differ in their first column, so each Add is a new tuple.
			rows := []int{0, 1, 2, 2, 7, 7, 7, 30, 30, 100, 100, 100}[rng.Intn(12)]
			for i := 0; i < rows; i++ {
				row := make(relation.Tuple, arity[r])
				row[0] = relation.Value(i)
				rel.Add(row)
			}
			db[fmt.Sprintf("r%d", r)] = rel
		}
		q := &cq.Query{}
		nvars := 1 + rng.Intn(12)
		for a, natoms := 0, 1+rng.Intn(14); a < natoms; a++ {
			r := rng.Intn(nrels)
			atom := cq.Atom{Rel: fmt.Sprintf("r%d", r)}
			for i := 0; i < arity[r]; i++ {
				atom.Args = append(atom.Args, cq.Var(rng.Intn(nvars)))
			}
			q.Atoms = append(q.Atoms, atom)
		}
		got, want := agmLog2(q, db), agmLog2Reference(q, db, nil)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: agmLog2 = %v, reference %v\nquery %v", trial, got, want, q)
		}
		c := newCover(q, db)
		subset, idx := []cq.Var{}, []int{}
		for _, v := range q.Vars() {
			if rng.Intn(2) == 0 {
				subset, idx = append(subset, v), append(idx, c.index[v])
			}
		}
		if got, want := c.log2(idx), agmLog2Reference(q, db, subset); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: the cover of %v = %v, reference %v\nquery %v", trial, subset, got, want, q)
		}
	}
	// The structured families are what the server sees most.
	for _, g := range []*graph.Graph{graph.AugmentedLadder(40), graph.AugmentedCircularLadder(20), graph.Wheel(12), graph.Complete(6)} {
		in := colorQuery(t, g)
		if got, want := agmLog2(in.q, in.db), agmLog2Reference(in.q, in.db, nil); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%v: agmLog2 = %v, reference %v", g, got, want)
		}
	}
}

// BenchmarkAdmissionAGM times the bound on the largest structured query
// the benchmark sends (augmented ladder of order 40: 160 variables, 238
// atoms), against the reference it replaced.
func BenchmarkAdmissionAGM(b *testing.B) {
	g := graph.AugmentedLadder(40)
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		b.Fatal(err)
	}
	db := instance.ColorDatabase(3)
	for _, impl := range []struct {
		name string
		f    func(*cq.Query, cq.Database) float64
	}{{"hoisted", agmLog2}, {"reference", func(q *cq.Query, db cq.Database) float64 { return agmLog2Reference(q, db, nil) }}} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				agmSink = impl.f(q, db)
			}
		})
	}
}

var agmSink float64

// BenchmarkAdmissionRule puts the cost of the size-only routing rule on
// record: all of assess on the largest structured query the benchmark
// sends, where the union-find acyclicity test runs, the no-gain walk is
// skipped on sizes alone and the free-variable walk stops at the first bag
// it covers, and on the triangle over an e of the through-the-wire
// benchmark's size, where the no-gain walk covers the decomposition's bag
// and fires. The query's structure is analyzed outside the loop, as
// compile analyzes it before admission.
func BenchmarkAdmissionRule(b *testing.B) {
	pool, db := shapePool(b, 20040314, 8000, 600, true)
	for _, c := range []struct{ name, reason string }{
		{"augladder-40", "free_vars_under_bag"}, {"triangle", "no_gain_from_decomposition"},
	} {
		i := slices.IndexFunc(pool, func(r routeCase) bool { return r.name == c.name })
		q := pool[i].q
		p, err := core.BuildPlan(core.MethodBucketElimination, q, nil)
		if err != nil {
			b.Fatal(err)
		}
		st := analyze(b, q)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var v *Verdict
			for i := 0; i < b.N; i++ {
				v = assess(st, p, "bucketelimination", 0, 0, 0, true, db)
			}
			if _, _, reason, _ := route("", q, core.Candidate{Plan: p}, v); reason != c.reason {
				b.Fatalf("route_reason %s (agm %.2f, bag %v, free %v), want %s", reason, v.AGMLog2, v.BagAGMLog2, v.FreeAGMLog2, c.reason)
			}
		})
	}
}

func TestLimiterShedsBeyondQueue(t *testing.T) {
	l := newLimiter(1, 1)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	// Second caller queues; third is shed immediately.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	queued := make(chan error, 1)
	go func() { queued <- l.acquire(ctx) }()
	// Wait for the queue spot to be taken.
	deadline := time.Now().Add(2 * time.Second)
	for len(l.queue) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := l.acquire(context.Background()); !errors.Is(err, engine.ErrOverloaded) {
		t.Fatalf("third acquire: got %v, want ErrOverloaded", err)
	}
	// Releasing the slot admits the queued caller.
	l.release()
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire after release: %v", err)
	}
	l.release()
}

func TestLimiterQueueWaitExpiry(t *testing.T) {
	l := newLimiter(1, 1)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := l.acquire(ctx); !errors.Is(err, engine.ErrOverloaded) {
		t.Fatalf("queue wait expiry: got %v, want ErrOverloaded", err)
	}
	l.release()
}
