package projpush

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/graph"
	"projpush/internal/plan"
	"projpush/internal/relation"
)

// Pushdown-on-vs-off benchmarks on the same selective acyclic workload
// shapes as the Yannakakis series. The quantity under test is peak
// memory: Stats.Bytes of the pull pipeline is its peak live residency
// (projection fused into the operators, breaker storage released on
// close), and the stream arm runs the semijoin pushdown phase ahead of it,
// so build sides are pre-reduced, where the iterator arm runs the
// identical early-projection plan on the same operators without the
// phase. `make bench-json` pins the series in BENCH_stream.json; the
// acceptance signal is stream maxrows (the largest materialized state) at
// least 5x under the iterator's on the chain and spider shapes at
// equal-or-better latency, with peak-bytes no higher. Peak-bytes is not
// the 5x signal: the iterator's builds over whole stored relations probe
// their resident column indexes and hold no bytes.
// BenchmarkStreamStructured is the other side: a Figure 9 family, where no
// sweep can remove a tuple, the phase skips itself, and the stream arm has
// to match the iterator's.

// runStreamVariant executes one engine variant b.N times, reporting the
// materialized/peak bytes and peak-rows instrumentation.
func runStreamVariant(b *testing.B, variant string, q *cq.Query, db cq.Database) {
	b.Helper()
	var bytes, peak int64
	var maxRows int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var res *engine.Result
		var err error
		switch variant {
		case "stream":
			p, perr := core.BuildPlan(core.MethodStream, q, nil)
			if perr != nil {
				b.Fatal(perr)
			}
			res, err = engine.ExecStreamContext(context.Background(), p, db, ybenchOpts)
		case "iterator":
			// The same plan shape as stream (early projection) on the same
			// operators, without the pushdown phase: the head-to-head that
			// isolates the phase from plan quality.
			p, perr := core.BuildPlan(core.MethodEarlyProjection, q, nil)
			if perr != nil {
				b.Fatal(perr)
			}
			res, err = engine.ExecIterator(p, db, ybenchOpts)
		case "yannakakis":
			res, err = engine.ExecYannakakisContext(context.Background(), q, db, ybenchOpts)
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
		if res.Stats.MaxRows > maxRows {
			maxRows = res.Stats.MaxRows
		}
	}
	b.ReportMetric(float64(bytes), "stats-bytes")
	b.ReportMetric(float64(peak), "peak-bytes")
	b.ReportMetric(float64(maxRows), "maxrows")
}

func streamVariants(b *testing.B, q *cq.Query, db cq.Database) {
	for _, v := range []string{"stream", "iterator", "yannakakis", string(core.MethodBucketElimination)} {
		v := v
		b.Run(v, func(b *testing.B) { runStreamVariant(b, v, q, db) })
	}
}

// BenchmarkStreamChain is the Figure-6 path shape with a 10-tuple
// selective head (the BenchmarkYannakakisChain workload): the pushdown
// sweep carries the head's bindings across the chain before any join
// builds, so every breaker stores a few surviving tuples where the
// iterator arm builds over each relation in full.
func BenchmarkStreamChain(b *testing.B) {
	const atoms, rows, dom = 8, 6000, 4000
	rng := rand.New(rand.NewSource(3))
	db := cq.Database{}
	q := &cq.Query{Free: []cq.Var{0, 1}}
	for i := 0; i < atoms; i++ {
		name := fmt.Sprintf("r%d", i)
		rel := randomRel(rng, rows, dom, dom)
		if i == 0 {
			rel = randomRel(rng, 10, dom, dom) // the selective head
		}
		db[name] = rel
		q.Atoms = append(q.Atoms, cq.Atom{Rel: name, Args: []cq.Var{cq.Var(i), cq.Var(i + 1)}})
	}
	streamVariants(b, q, db)
}

// BenchmarkStreamSpider is the two-level star with one selective outer
// arm (the BenchmarkYannakakisSpider workload): the selective arm's
// pruning reaches every build side through the shared center before the
// builds allocate.
func BenchmarkStreamSpider(b *testing.B) {
	const arms, rows, dom = 5, 5000, 2000
	rng := rand.New(rand.NewSource(5))
	db := cq.Database{}
	q := &cq.Query{Free: []cq.Var{0}}
	for i := 0; i < arms; i++ {
		inner, outer := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		y, z := cq.Var(1+2*i), cq.Var(2+2*i)
		db[inner] = randomRel(rng, rows, dom, dom)
		if i == 0 {
			db[outer] = randomRel(rng, 8, dom, dom) // the selective arm
		} else {
			db[outer] = randomRel(rng, rows, dom, dom)
		}
		q.Atoms = append(q.Atoms,
			cq.Atom{Rel: inner, Args: []cq.Var{0, y}},
			cq.Atom{Rel: outer, Args: []cq.Var{y, z}})
	}
	streamVariants(b, q, db)
}

// BenchmarkStreamAugPath is the Figure-6 augmented path with selective
// dangling edges (the BenchmarkYannakakisAugPath workload): every path
// relation is pre-reduced by its dangling partner's 12-tuple relation
// before any join builds.
func BenchmarkStreamAugPath(b *testing.B) {
	const order, rows, dom = 10, 4000, 80
	g := graph.AugmentedPath(order)
	rng := rand.New(rand.NewSource(7))
	db := cq.Database{}
	q := &cq.Query{Free: []cq.Var{0, 1}}
	for i, e := range g.Edges {
		name := fmt.Sprintf("e%d", i)
		dangling := e[1] >= order // dangling partners are numbered after the path
		if dangling {
			r := relation.New([]relation.Attr{0, 1})
			for j := 0; j < 12; j++ {
				r.Add(relation.Tuple{relation.Value(rng.Intn(dom)), relation.Value(rng.Intn(dom))})
			}
			db[name] = r
		} else {
			db[name] = randomRel(rng, rows, dom, dom)
		}
		q.Atoms = append(q.Atoms, cq.Atom{Rel: name, Args: []cq.Var{cq.Var(e[0]), cq.Var(e[1])}})
	}
	streamVariants(b, q, db)
}

// BenchmarkStreamStructured is the stream method on the paper's own
// traffic: the Boolean 3-COLOR query of the augmented circular ladder
// (Figure 9) at orders 5–40, on the plan a request naming it runs (early
// projection), three ways — the materializing walker, the stream engine, and the bare
// pipeline (iterator). Every column of every scan is the edge relation's,
// so the stream engine proves its sweeps useless and skips them: its
// time and peak-bytes are the iterator's, and both hold a fraction of what
// the walker charges.
func BenchmarkStreamStructured(b *testing.B) {
	db := ColorDatabase(3)
	for _, order := range []int{5, 10, 20, 40} {
		g := graph.AugmentedCircularLadder(order)
		q, err := ColorQuery(g, BooleanFree(g))
		if err != nil {
			b.Fatal(err)
		}
		p, err := core.BuildPlan(core.MethodStream, q, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, arm := range []struct {
			name string
			exec func(plan.Node, cq.Database, engine.Options) (*engine.Result, error)
		}{{"walker", engine.Exec}, {"stream", func(p plan.Node, db cq.Database, o engine.Options) (*engine.Result, error) {
			return engine.ExecStreamContext(context.Background(), p, db, o)
		}}, {"iterator", engine.ExecIterator}} {
			b.Run(fmt.Sprintf("augcircladder-%d/%s", order, arm.name), func(b *testing.B) {
				// One untimed run first: the recorded series is three
				// iterations, and a cold first one would be a third of it.
				res, err := arm.exec(p, db, ybenchOpts)
				b.ResetTimer()
				for i := 0; i < b.N && err == nil; i++ {
					res, err = arm.exec(p, db, ybenchOpts)
				}
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Stats.PeakBytes), "peak-bytes")
			})
		}
	}
}
