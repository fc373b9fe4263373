package server

import (
	"context"
	"math"
	"testing"
	"time"

	"projpush/internal/core"
	"projpush/internal/engine"
)

// BenchmarkRoutingMatrix is ROADMAP item 3's matrix: every route the
// cascade can take × the cyclic shapes, each cell executing what that
// tier would execute for a methodless request (the stream and default
// tiers their narrowest plan), with peak-bytes beside the time. The
// router=<route> row re-runs the cell the server's cascade picks and
// reports its regret: that cell's time over the row's best. A cell that
// exceeds the server's default budgets or cellTimeout is skipped and
// cannot be the best. The summary row carries the worst regret and the
// regret of the whole matrix (Σ routed / Σ best).
func BenchmarkRoutingMatrix(b *testing.B) {
	const cellTimeout = 2 * time.Second
	opt := engine.Options{MaxRows: 10_000_000, MaxBytes: 256 << 20}
	// The matrix's rows: the cyclic shapes, Boolean, with the triangle and
	// the 4-cycle over an e of the through-the-wire benchmark's size.
	pool, db := shapePool(b, 20040314, 8000, 600, false)
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
		streamPlan, err := core.StreamPlan(q, mcs)
		if err != nil {
			b.Fatal(err)
		}
		bePlan, err := core.NarrowestBucketElimination(q, mcs)
		if err != nil {
			b.Fatal(err)
		}
		exec := func(ctx context.Context, m core.Method) (*engine.Result, error) {
			switch m {
			case core.MethodYannakakis:
				return engine.ExecYannakakisContext(ctx, q, db, opt)
			case core.MethodStream:
				return engine.ExecStreamContext(ctx, streamPlan.Plan, db, opt)
			case core.MethodWCOJ:
				return engine.ExecWCOJContext(ctx, q, db, opt)
			default:
				return engine.ExecContext(ctx, bePlan.Plan, db, opt)
			}
		}
		// cell runs one route b.N times after one untimed run, which
		// warms the allocator and decides whether the cell can finish,
		// and returns its ns/op.
		cell := func(b *testing.B, m core.Method) float64 {
			run := func() *engine.Result {
				ctx, cancel := context.WithTimeout(context.Background(), cellTimeout)
				defer cancel()
				res, err := exec(ctx, m)
				if err != nil {
					b.Skipf("%s did not finish: %v", m, err) // the caller keeps +Inf
				}
				return res
			}
			res := run()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = run()
			}
			peak := res.Stats.PeakBytes
			if peak == 0 {
				peak = res.Stats.Bytes
			}
			b.ReportMetric(float64(peak), "peak-bytes")
			return float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		}
		ns := map[core.Method]float64{}
		for _, m := range routes {
			m := m
			ns[m] = math.Inf(1)
			b.Run(c.name+"/"+string(m), func(b *testing.B) { ns[m] = cell(b, m) })
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
