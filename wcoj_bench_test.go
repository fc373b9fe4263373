package projpush

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/jointree"
	"projpush/internal/relation"
)

// Worst-case-optimal-vs-binary-plan benchmarks on dense cyclic shapes —
// the regime the leapfrog executor exists for. On a triangle or 4-cycle
// over a random edge relation, every binary plan must materialize a
// two-atom join of about |E|²/dom rows before the closing edge can
// filter it, while the multiway join intersects all atoms variable by
// variable and never holds more than the (tiny) output plus the sorted
// indexes. `make bench-json` pins the series in BENCH_wcoj.json; the
// acceptance signal is wcoj latency or peak-bytes at least 5x under
// bucket elimination on the triangle and four-cycle shapes.

// runWCOJVariant executes one variant b.N times, reporting the
// materialized/peak bytes and (for wcoj) the leapfrog work counters.
func runWCOJVariant(b *testing.B, variant string, q *cq.Query, db cq.Database) {
	b.Helper()
	var bytes, peak, seeks, extensions int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var res *engine.Result
		var err error
		switch variant {
		case "wcoj":
			res, err = engine.ExecWCOJContext(context.Background(), q, db, ybenchOpts)
		case "stream":
			p, perr := core.BuildPlan(core.MethodStream, q, nil)
			if perr != nil {
				b.Fatal(perr)
			}
			res, err = engine.ExecStreamContext(context.Background(), p, db, ybenchOpts)
		default:
			p, perr := core.BuildPlan(core.Method(variant), q, nil)
			if perr != nil {
				b.Fatal(perr)
			}
			res, err = engine.Exec(p, db, ybenchOpts)
		}
		if err != nil {
			b.Fatalf("%s aborted: %v", variant, err)
		}
		bytes = res.Stats.Bytes
		peak = res.Stats.PeakBytes
		seeks = res.Stats.Seeks
		extensions = res.Stats.Extensions
	}
	b.ReportMetric(float64(bytes), "stats-bytes")
	b.ReportMetric(float64(peak), "peak-bytes")
	if seeks > 0 {
		b.ReportMetric(float64(seeks), "seeks")
		b.ReportMetric(float64(extensions), "extensions")
	}
}

func wcojVariants(b *testing.B, q *cq.Query, db cq.Database) {
	for _, v := range []string{"wcoj", string(core.MethodBucketElimination), "stream"} {
		v := v
		b.Run(v, func(b *testing.B) { runWCOJVariant(b, v, q, db) })
	}
}

// denseVariants runs the variants again, as the "dense" sub-row, over an
// edge relation of cyclic-dense's shape: 8 000 edges over 600 values. Its
// sorted indexes keep run bitmaps (600 runs of 10 words, under 8 000 rows),
// so leapfrog's last-column levels AND them; the sparser top-level
// relations' would take more words than rows, so those rows gallop.
func denseVariants(b *testing.B, q *cq.Query, seed int64) {
	db := cq.Database{"e": randomRel(rand.New(rand.NewSource(seed)), 8000, 600, 600)}
	b.Run("dense", func(b *testing.B) { wcojVariants(b, q, db) })
}

// BenchmarkWCOJTriangle is the canonical worst-case-optimal workload: a
// directed triangle over one random edge relation. The binary plans
// build e⋈e (about rows²/dom tuples) before the closing atom prunes
// it; semijoin pushdown cannot help because every edge participates in
// some two-path, so the streaming engine pays the same build.
func BenchmarkWCOJTriangle(b *testing.B) {
	const rows, dom = 30_000, 1500
	rng := rand.New(rand.NewSource(11))
	db := cq.Database{"e": randomRel(rng, rows, dom, dom)}
	q := &cq.Query{
		Free: []cq.Var{0},
		Atoms: []cq.Atom{
			{Rel: "e", Args: []cq.Var{0, 1}},
			{Rel: "e", Args: []cq.Var{1, 2}},
			{Rel: "e", Args: []cq.Var{2, 0}},
		},
	}
	wcojVariants(b, q, db)
	denseVariants(b, q, 11)
}

// BenchmarkWCOJFourCycle is the 4-cycle over the same kind of random
// edge relation: two independent two-path joins of about rows²/dom
// tuples each before the binary plans can intersect them.
func BenchmarkWCOJFourCycle(b *testing.B) {
	const rows, dom = 20_000, 1500
	rng := rand.New(rand.NewSource(13))
	db := cq.Database{"e": randomRel(rng, rows, dom, dom)}
	q := &cq.Query{
		Free: []cq.Var{0},
		Atoms: []cq.Atom{
			{Rel: "e", Args: []cq.Var{0, 1}},
			{Rel: "e", Args: []cq.Var{1, 2}},
			{Rel: "e", Args: []cq.Var{2, 3}},
			{Rel: "e", Args: []cq.Var{3, 0}},
		},
	}
	wcojVariants(b, q, db)
	denseVariants(b, q, 13)
}

// BenchmarkWCOJClique is the paper-flavored cyclic shape: Boolean
// 6-COLOR on K7 (empty — the chromatic number is 7), where bucket
// elimination's intermediates enumerate the injective partial colorings
// of growing sub-cliques while the leapfrog join backtracks out of each
// dead branch at its first unextendable variable.
func BenchmarkWCOJClique(b *testing.B) {
	g := graph.Complete(7)
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		b.Fatal(err)
	}
	db := instance.ColorDatabase(6)
	wcojVariants(b, q, db)
}

// BenchmarkWCOJEndToEndSize runs the leapfrog join on the triangle and the
// 4-cycle at the size the through-the-wire benchmark's cyclic-dense
// workload sends them (e: 8000 rows over 600 values, one free variable),
// and splits the time. build-ns is the two sorted indexes the executor
// reads (e by columns 0,1 and by 1,0 — every atom shares one of them),
// built fresh over a clone of e outside the loop's clock: resident state
// of the arena, it is paid once per arena, by the first request, not per
// request. enumerate-ns is a run over the warm indexes, which is what
// every later request pays.
func BenchmarkWCOJEndToEndSize(b *testing.B) {
	e := denseEdges()
	db := cq.Database{"e": e}
	for _, shape := range []struct {
		name string
		n    int
	}{{"triangle", 3}, {"cycle4", 4}} {
		q := cycleOverE(shape.n, 0)
		b.Run(shape.name, func(b *testing.B) {
			res, err := engine.ExecWCOJContext(context.Background(), q, db, ybenchOpts) // warms e's indexes
			if err != nil {
				b.Fatal(err)
			}
			var build time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fresh := e.Clone()
				start := time.Now()
				for _, cols := range [][]relation.Attr{{0, 1}, {1, 0}} {
					if _, err := fresh.SortedIndex(cols); err != nil {
						b.Fatal(err)
					}
				}
				build += time.Since(start)
				b.StartTimer()
				if res, err = engine.ExecWCOJContext(context.Background(), q, db, ybenchOpts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(build.Nanoseconds())/float64(b.N), "build-ns")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "enumerate-ns")
			b.ReportMetric(float64(res.Stats.PeakBytes), "peak-bytes")
			b.ReportMetric(float64(res.Stats.Seeks), "seeks")
			b.ReportMetric(float64(res.Stats.Extensions), "extensions")
		})
	}
}

// denseEdges is the cyclic-dense workload's shape of e: 8000 distinct
// random edges over 600 vertices.
func denseEdges() *relation.Relation {
	const rows, dom = 8000, 600
	e := relation.New([]relation.Attr{0, 1})
	for rng := rand.New(rand.NewSource(20040314)); e.Len() < rows; {
		e.Add(relation.Tuple{relation.Value(rng.Intn(dom)), relation.Value(rng.Intn(dom))})
	}
	return e
}

// cycleOverE is the n-cycle e(x0,x1), …, e(x(n-1),x0) with the given
// free variables.
func cycleOverE(n int, free ...cq.Var) *cq.Query {
	q := &cq.Query{Free: free}
	for i := 0; i < n; i++ {
		q.Atoms = append(q.Atoms, cq.Atom{Rel: "e", Args: []cq.Var{cq.Var(i), cq.Var((i + 1) % n)}})
	}
	return q
}

// BenchmarkWCOJWarmRun is what a compiled query's leapfrog join costs a
// request once the text has run before: one NewWCOJ Fallback, run once
// outside the clock (it builds the plan and warms the sorted indexes), then
// b.N runs that reuse both. Boolean 3-COLOR on the paper's cyclic families,
// the free_vars_under_bag route's traffic, whose allocs/op must not grow
// with the order; and the two dense texts whose existential levels cost
// most on cyclic-dense, triangle/x,y and cycle4/x over denseEdges.
func BenchmarkWCOJWarmRun(b *testing.B) {
	type warm struct {
		name string
		q    *cq.Query
		db   cq.Database
	}
	var cases []warm
	colors := instance.ColorDatabase(3)
	for _, f := range []struct {
		name string
		gen  func(int) *graph.Graph
	}{{"ladder", graph.Ladder}, {"augladder", graph.AugmentedLadder}, {"augcircladder", graph.AugmentedCircularLadder}} {
		for _, order := range []int{10, 40} {
			g := f.gen(order)
			q, err := instance.ColorQuery(g, instance.BooleanFree(g))
			if err != nil {
				b.Fatal(err)
			}
			cases = append(cases, warm{fmt.Sprintf("%s-%d", f.name, order), q, colors})
		}
	}
	dense := cq.Database{"e": denseEdges()}
	cases = append(cases, warm{"triangle-xy", cycleOverE(3, 0, 1), dense}, warm{"cycle4-x", cycleOverE(4, 0), dense})
	for _, c := range cases {
		s, err := jointree.Analyze(c.q)
		if err != nil {
			b.Fatal(err)
		}
		run := engine.NewWCOJ(s, 0).Run
		b.Run(c.name, func(b *testing.B) {
			if _, err := run(context.Background(), c.db, ybenchOpts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := run(context.Background(), c.db, ybenchOpts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
