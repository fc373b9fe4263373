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
	"projpush/internal/jointree"
	"projpush/internal/relation"
)

// Yannakakis-vs-bucket-elimination benchmarks on acyclic Figure-6–9-style
// workloads with selective data — the regime the full reducer exists for.
// On 3-COLOR the edge relation is complete over the colors and semijoins
// delete nothing, so these workloads use per-atom random relations with a
// selective atom: the plan methods materialize unreduced intermediates,
// the sweep deletes the non-contributing tuples first. `make bench-json`
// pins the series in BENCH_yannakakis.json; the stats-bytes metric is the
// peak Stats.Bytes acceptance signal (B/op tracks it in the JSON).

var ybenchOpts = engine.Options{Timeout: 30 * time.Second, MaxRows: 20_000_000}

// runYMethod executes q b.N times under the method, reporting the
// engine's materialized-bytes and peak-rows instrumentation. The full
// reducer runs as a server runs a compiled text: one NewYannakakis over
// one analysis, its bag tree bound by a warm-up run before the timer
// starts; a plan method builds its plan on every iteration.
func runYMethod(b *testing.B, m core.Method, q *cq.Query, db cq.Database) {
	b.Helper()
	var bytes int64
	var maxRows int
	run := func() (*engine.Result, error) {
		p, err := core.BuildPlan(m, q, nil)
		if err != nil {
			b.Fatal(err)
		}
		return engine.Exec(p, db, ybenchOpts)
	}
	if m == core.MethodYannakakis {
		s, err := jointree.Analyze(q)
		if err != nil {
			b.Fatal(err)
		}
		y := engine.NewYannakakis(s)
		run = func() (*engine.Result, error) { return y.Run(context.Background(), db, ybenchOpts) }
		if _, err := run(); err != nil {
			b.Fatalf("%s aborted: %v", m, err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := run()
		if err != nil {
			b.Fatalf("%s aborted: %v", m, err)
		}
		bytes = res.Stats.Bytes
		if res.Stats.MaxRows > maxRows {
			maxRows = res.Stats.MaxRows
		}
	}
	b.ReportMetric(float64(bytes), "stats-bytes")
	b.ReportMetric(float64(maxRows), "maxrows")
}

func yMethods(b *testing.B, q *cq.Query, db cq.Database) {
	for _, m := range []core.Method{core.MethodYannakakis, core.MethodBucketElimination, core.MethodEarlyProjection} {
		m := m
		b.Run(string(m), func(b *testing.B) { runYMethod(b, m, q, db) })
	}
}

// randomRel builds a binary relation with rows random tuples, columns
// drawn from the two domains.
func randomRel(rng *rand.Rand, rows, domA, domB int) *relation.Relation {
	r := relation.New([]relation.Attr{0, 1})
	for i := 0; i < rows; i++ {
		r.Add(relation.Tuple{relation.Value(rng.Intn(domA)), relation.Value(rng.Intn(domB))})
	}
	return r
}

// yChain is the Figure-6 path shape r0(x0,x1), …, r7(x7,x8) with a
// selective 10-tuple head r0. The domain matches the row count so
// selectivity propagates hop to hop instead of saturating.
func yChain() ([]cq.Atom, cq.Database) {
	const atoms, rows, dom = 8, 6000, 4000
	rng := rand.New(rand.NewSource(3))
	db := cq.Database{}
	var body []cq.Atom
	for i := 0; i < atoms; i++ {
		name := fmt.Sprintf("r%d", i)
		rel := randomRel(rng, rows, dom, dom)
		if i == 0 {
			rel = randomRel(rng, 10, dom, dom) // the selective head
		}
		db[name] = rel
		body = append(body, cq.Atom{Rel: name, Args: []cq.Var{cq.Var(i), cq.Var(i + 1)}})
	}
	return body, db
}

// BenchmarkYannakakisChain frees the head's x0,x1, so the head is the
// join tree's root: bucket elimination eliminates from the far end, so
// every middle bucket joins a nearly unreduced relation and the head
// prunes only the very last join, while the full reducer's walk out from
// its smallest bag pushes the head's bindings down the whole chain before
// the sweeps build on it.
func BenchmarkYannakakisChain(b *testing.B) {
	body, db := yChain()
	yMethods(b, &cq.Query{Atoms: body, Free: []cq.Var{0, 1}}, db)
}

// BenchmarkYannakakisChainFarEnd is the same chain with the far end's x8
// free: the head is a leaf, and the bottom-up sweep carries its bindings
// up the chain.
func BenchmarkYannakakisChainFarEnd(b *testing.B) {
	body, db := yChain()
	yMethods(b, &cq.Query{Atoms: body, Free: []cq.Var{8}}, db)
}

// ySpider is a two-level star (center x0, arms x0—y_i—z_i, a_i(x0,y_i)
// and b_i(y_i,z_i)) with the selective 8-tuple outer relation b0.
func ySpider() ([]cq.Atom, cq.Database) {
	const arms, rows, dom = 5, 5000, 2000
	rng := rand.New(rand.NewSource(5))
	db := cq.Database{}
	var body []cq.Atom
	for i := 0; i < arms; i++ {
		inner, outer := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		y, z := cq.Var(1+2*i), cq.Var(2+2*i)
		db[inner] = randomRel(rng, rows, dom, dom)
		if i == 0 {
			db[outer] = randomRel(rng, 8, dom, dom) // the selective arm
		} else {
			db[outer] = randomRel(rng, rows, dom, dom)
		}
		body = append(body,
			cq.Atom{Rel: inner, Args: []cq.Var{0, y}},
			cq.Atom{Rel: outer, Args: []cq.Var{y, z}})
	}
	return body, db
}

// BenchmarkYannakakisSpider frees the center x0: bucket elimination
// materializes each inner relation nearly in full when eliminating the
// y_i (the selective arm's pruning reaches the other arms only at the
// very last join), while the full reducer's semijoins — the walk out from
// the selective arm, then the two sweeps — shrink every arm to the few
// surviving center values before any join runs.
func BenchmarkYannakakisSpider(b *testing.B) {
	body, db := ySpider()
	yMethods(b, &cq.Query{Atoms: body, Free: []cq.Var{0}}, db)
}

// BenchmarkYannakakisSpiderFarArm frees x0 and z1, the end of an
// unselective arm: the join tree's root bag hosts both of that arm's atoms,
// a1(x0,y1) and b1(y1,z1), and their unreduced join is ~12 500 rows. The
// walk out from b0 filters a1 by the surviving center values before the
// bag is joined, so the join is formed from a few dozen rows of a1.
func BenchmarkYannakakisSpiderFarArm(b *testing.B) {
	body, db := ySpider()
	yMethods(b, &cq.Query{Atoms: body, Free: []cq.Var{0, 4}}, db)
}

// BenchmarkYannakakisAugPath is the Figure-6 augmented path with
// selective dangling edges: every path vertex carries a dangling atom
// whose relation admits only a few path-vertex values, so the sweeps
// shrink each path relation long before any join runs.
func BenchmarkYannakakisAugPath(b *testing.B) {
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
	yMethods(b, q, db)
}

// BenchmarkYannakakisCompose is π_{x,z} R(x,y) ⋈ S(y,z) over two stored
// relations of 6 000 rows on 4 000 values, the shape of wide-answer's
// r1r2/x,z: about 9 000 join rows that project onto nearly as many
// answers. It is one bag, which no semijoin reduces, so the full reducer
// forms it in phase 5 with its join fused with its projection.
func BenchmarkYannakakisCompose(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	db := cq.Database{"R": randomRel(rng, 6000, 4000, 4000), "S": randomRel(rng, 6000, 4000, 4000)}
	yMethods(b, &cq.Query{
		Atoms: []cq.Atom{{Rel: "R", Args: []cq.Var{0, 1}}, {Rel: "S", Args: []cq.Var{1, 2}}},
		Free:  []cq.Var{0, 2},
	}, db)
}
