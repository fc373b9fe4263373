package server

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/cqparse"
	"projpush/internal/engine"
	"projpush/internal/relation"
	"projpush/internal/resilience"
)

// selectiveCases adds to db, and returns queries over, the acyclic shapes
// of the through-the-wire benchmark's selective-acyclic workload at its
// sizes: the chain r0(x0,x1), …, r7(x7,x8) of 6000-row relations over
// 4000 values whose head r0 has 10 rows; the spider of five arms
// a_i(x0,y_i), b_i(y_i,z_i) of 5000 rows over 2000 values whose arm end b0
// has 8; and the augmented path of order 6 over the a_i with a b_i
// dangling at every vertex, b0 at the head.
func selectiveCases(t testing.TB, db cq.Database) []routeCase {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	random := func(rows, dom int) *relation.Relation {
		r := relation.New([]relation.Attr{0, 1})
		for i := 0; i < rows; i++ {
			r.Add(relation.Tuple{relation.Value(rng.Intn(dom)), relation.Value(rng.Intn(dom))})
		}
		return r
	}
	chain := &cq.Query{Free: []cq.Var{0, 1}}
	for i := 0; i < 8; i++ {
		rows := 6000
		if i == 0 {
			rows = 10
		}
		name := fmt.Sprintf("r%d", i)
		db[name] = random(rows, 4000)
		chain.Atoms = append(chain.Atoms, cq.Atom{Rel: name, Args: []cq.Var{cq.Var(i), cq.Var(i + 1)}})
	}
	spider := &cq.Query{Free: []cq.Var{0}}
	augpath := &cq.Query{Free: []cq.Var{0, 1}}
	for i := 0; i < 5; i++ {
		rows := 5000
		if i == 0 {
			rows = 8
		}
		a, bName := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		db[a], db[bName] = random(5000, 2000), random(rows, 2000)
		y, z := cq.Var(1+2*i), cq.Var(2+2*i)
		spider.Atoms = append(spider.Atoms, cq.Atom{Rel: a, Args: []cq.Var{0, y}}, cq.Atom{Rel: bName, Args: []cq.Var{y, z}})
	}
	for i := 0; i < 6; i++ {
		augpath.Atoms = append(augpath.Atoms, cq.Atom{Rel: fmt.Sprintf("b%d", i%5), Args: []cq.Var{cq.Var(i), cq.Var(6 + i)}})
		if i < 5 {
			augpath.Atoms = append(augpath.Atoms, cq.Atom{Rel: fmt.Sprintf("a%d", i), Args: []cq.Var{cq.Var(i), cq.Var(i + 1)}})
		}
	}
	cases := []routeCase{{"chain", chain}, {"spider", spider}, {"augpath-selective", augpath}}
	for i, c := range cases {
		file, err := cqparse.ParseWith(strings.NewReader(textOf(t, c.q)), db)
		if err != nil {
			t.Fatal(err)
		}
		cases[i].q = file.Query
	}
	return cases
}

// BenchmarkRoutingMatrix is ROADMAP item 3's matrix: every route the
// server can take × the cyclic shapes and the selective acyclic ones
// (selectiveCases), each cell executing what that
// route would execute for a methodless request — the default tier its
// narrowest plan on the pull pipeline, sweeps only where one scan can
// reduce another (resilience.Routed, as the server builds it), and the
// stream column the plan the stream tier ran before it folded into the
// default tier, the same way, so the recorded series stays comparable —
// with peak-bytes beside the time. The
// router=<route> row re-runs the cell the server's router picks and
// reports its regret: that cell's time over the row's best. Every cyclic
// row here is Boolean, so the size-only rule sends each to the leapfrog
// join, and its regret is that executor's. A cell that
// exceeds the server's default budgets or cellTimeout is skipped and
// cannot be the best. The summary row carries the worst regret and the
// regret of the whole matrix (Σ routed / Σ best).
//
// A cell's ns/op is the median of cellSamples samples, each the mean of
// runs over at least sampleTime, taken in rounds that time every route of
// the row in turn: a drift in the host's speed reaches every cell of a row
// alike, so a row's regret holds still between recordings. The cell's own
// b.N loop (once, under make bench-json's -benchtime 1x) measures B/op,
// allocs/op and peak-bytes.
func BenchmarkRoutingMatrix(b *testing.B) {
	const cellTimeout = 2 * time.Second
	const cellSamples, sampleTime = 21, 10 * time.Millisecond
	opt := engine.Options{MaxRows: 10_000_000, MaxBytes: 256 << 20}
	// The matrix's rows: the cyclic shapes, Boolean, with the triangle and
	// the 4-cycle over an e of the through-the-wire benchmark's size.
	pool, db := shapePool(b, 20040314, 8000, 600, false)
	pool = append(pool, selectiveCases(b, db)...)
	s := New(Config{DB: db})
	routes := []core.Method{core.MethodYannakakis, core.MethodStream, core.MethodWCOJ, core.MethodBucketElimination}

	var sumRouted, sumBest, worst float64
	for _, c := range pool {
		q := c.q
		picked, _, v := routed(b, s, q, db)
		inHand, err := core.BuildPlan(core.MethodBucketElimination, q, nil)
		if err != nil {
			b.Fatal(err)
		}
		mcs := core.Candidate{Plan: inHand, Order: core.OrderMCS, Width: v.PlanWidth}
		// The stream column is the retired stream tier's plan: early
		// projection unless the MCS plan is strictly narrower.
		ep, err := core.EarlyProjection(q)
		if err != nil {
			b.Fatal(err)
		}
		streamPlan := core.Narrowest(core.NewCandidate(ep, core.OrderListed), mcs)
		bePlan, err := core.NarrowestBucketElimination(q, mcs)
		if err != nil {
			b.Fatal(err)
		}
		streamTier, _ := resilience.Routed(core.MethodStream, analyze(b, q), streamPlan.Plan)
		defaultTier, _ := resilience.Routed(core.MethodBucketElimination, analyze(b, q), bePlan.Plan)
		exec := func(ctx context.Context, m core.Method) (*engine.Result, error) {
			switch m {
			case core.MethodYannakakis:
				return engine.ExecYannakakisContext(ctx, q, db, opt)
			case core.MethodStream:
				return streamTier.Run(ctx, db, opt)
			case core.MethodWCOJ:
				return engine.ExecWCOJContext(ctx, q, db, opt)
			default:
				return defaultTier.Run(ctx, db, opt)
			}
		}
		run := func(m core.Method) (*engine.Result, error) {
			ctx, cancel := context.WithTimeout(context.Background(), cellTimeout)
			defer cancel()
			return exec(ctx, m)
		}
		// One untimed run per route warms the allocator and decides
		// whether the cell can finish; then the interleaved rounds.
		errs, samples := map[core.Method]error{}, map[core.Method][]float64{}
		for _, m := range routes {
			_, errs[m] = run(m)
		}
		for range cellSamples {
			for _, m := range routes {
				if errs[m] != nil {
					continue
				}
				start, n := time.Now(), 0
				for ; errs[m] == nil && (n == 0 || time.Since(start) < sampleTime); n++ {
					_, errs[m] = run(m)
				}
				samples[m] = append(samples[m], float64(time.Since(start).Nanoseconds())/float64(n))
			}
		}
		ns := map[core.Method]float64{}
		for _, m := range routes {
			ns[m] = math.Inf(1)
			if errs[m] == nil {
				slices.Sort(samples[m])
				ns[m] = samples[m][cellSamples/2]
			}
		}
		cell := func(b *testing.B, m core.Method) {
			if errs[m] != nil {
				b.Skipf("%s did not finish: %v", m, errs[m]) // its time stays +Inf
			}
			var res *engine.Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = run(m); err != nil {
					b.Skipf("%s did not finish: %v", m, err)
				}
			}
			peak := res.Stats.PeakBytes
			if peak == 0 {
				peak = res.Stats.Bytes
			}
			b.ReportMetric(float64(peak), "peak-bytes")
			b.ReportMetric(ns[m], "ns/op")
		}
		for _, m := range routes {
			b.Run(c.name+"/"+string(m), func(b *testing.B) { cell(b, m) })
		}
		best := math.Inf(1)
		for _, t := range ns {
			best = math.Min(best, t)
		}
		b.Run(c.name+"/router="+string(picked), func(b *testing.B) {
			cell(b, picked)
			b.ReportMetric(ns[picked]/best, "regret")
		})
		if !math.IsInf(ns[picked], 1) {
			sumRouted += ns[picked]
			sumBest += best
			worst = math.Max(worst, ns[picked]/best)
		}
	}
	b.Run("summary/router", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
		}
		b.ReportMetric(worst, "regret-max")
		b.ReportMetric(sumRouted/sumBest, "regret-total")
	})
}
