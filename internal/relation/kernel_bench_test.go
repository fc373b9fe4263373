package relation

import (
	"math/rand"
	"testing"
)

// Kernel microbenchmarks for the execution hot path, with map-based
// baselines replicating the pre-open-addressing kernels (build tables as
// map[uint64][]Tuple, dedup as map[uint64]struct{}, rows as individually
// allocated Tuples). `make bench-json` records the BenchmarkKernel*
// series in BENCH_relation.json so future PRs have a perf trajectory.

// benchInputs builds the classic chain-join pair R(0,1) ⋈ S(1,2).
func benchInputs(rows, domain int) (*Relation, *Relation) {
	rng := rand.New(rand.NewSource(42))
	a := New([]Attr{0, 1})
	b := New([]Attr{1, 2})
	for i := 0; i < rows; i++ {
		a.Add(Tuple{Value(rng.Intn(domain)), Value(rng.Intn(domain))})
		b.Add(Tuple{Value(rng.Intn(domain)), Value(rng.Intn(domain))})
	}
	return a, b
}

// mapBaselineJoinProject is the old kernel shape: generic-map build
// table, per-row Tuple allocation, map-set dedup for both the join output
// and the projection. It operates on the same inputs and produces the
// same logical result as JoinLimited + ProjectLimited.
func mapBaselineJoinProject(r, o *Relation, projCols []Attr) int {
	shared := SharedAttrs(r, o)
	build, probe := r, o
	if probe.Len() < build.Len() {
		build, probe = o, r
	}
	outAttrs := append([]Attr(nil), r.attrs...)
	for _, a := range o.attrs {
		if !r.HasAttr(a) {
			outAttrs = append(outAttrs, a)
		}
	}
	bPos, pPos := build.colsOf(shared), probe.colsOf(shared)

	table := make(map[uint64][]Tuple, build.Len())
	for i := 0; i < build.n; i++ {
		t := build.row(i)
		k, _ := packKey(t, bPos)
		table[k] = append(table[k], t)
	}

	probeSrc := make([]int, len(outAttrs))
	buildSrc := make([]int, len(outAttrs))
	for i, a := range outAttrs {
		if j := probe.Pos(a); j >= 0 {
			probeSrc[i], buildSrc[i] = j, -1
		} else {
			probeSrc[i], buildSrc[i] = -1, build.Pos(a)
		}
	}

	joined := make(map[uint64]struct{})
	outCols := identityCols(len(outAttrs))
	var rows []Tuple
	for pi := 0; pi < probe.n; pi++ {
		pt := probe.row(pi)
		k, _ := packKey(pt, pPos)
		for _, bt := range table[k] {
			row := make(Tuple, len(outAttrs))
			for i := range outAttrs {
				if probeSrc[i] >= 0 {
					row[i] = pt[probeSrc[i]]
				} else {
					row[i] = bt[buildSrc[i]]
				}
			}
			k, _ := packKey(row, outCols)
			if _, dup := joined[k]; dup {
				continue
			}
			joined[k] = struct{}{}
			rows = append(rows, row)
		}
	}

	idx := make([]int, len(projCols))
	for i, a := range projCols {
		for j, oa := range outAttrs {
			if oa == a {
				idx[i] = j
			}
		}
	}
	projected := make(map[uint64]struct{})
	projPos := identityCols(len(projCols))
	n := 0
	for _, t := range rows {
		row := make(Tuple, len(projCols))
		for i, j := range idx {
			row[i] = t[j]
		}
		k, _ := packKey(row, projPos)
		if _, dup := projected[k]; dup {
			continue
		}
		projected[k] = struct{}{}
		n++
	}
	return n
}

// spreadKey copies r with attribute k's values multiplied by a prime over
// 100 000: the same join, over a key range far wider than the rows.
func spreadKey(r *Relation, k Attr) *Relation {
	out, j := New(r.attrs), r.Pos(k)
	r.Each(func(t Tuple) bool {
		u := t.Clone()
		u[j] *= 100_003
		out.Add(u)
		return true
	})
	return out
}

// BenchmarkKernelJoinProject measures the join+project hot path — the
// operation pair that dominates every figure's running time — on the
// open-addressing kernels against the map-based baseline. "open" joins
// private relations, so it builds a table each time; "view" joins the
// same rows as fresh views of stored arenas, as a query's scans bind
// them, so it reads the larger arena's resident sorted index; "view-sparse"
// is "view" with the key's values spread over a range far wider than the
// rows, so it probes the larger arena's resident column index instead.
// Each runs JoinLimited then ProjectLimited, as the plan walker does; the
// fused- rows run the same inputs through JoinProjectLimited, as the full
// reducer does, which never writes the join.
func BenchmarkKernelJoinProject(b *testing.B) {
	a, c := benchInputs(20000, 120)
	proj := []Attr{0, 2}
	sa, sc := a.Clone(), c.Clone()
	spreadA, spreadC := spreadKey(a, 1), spreadKey(c, 1)
	for _, in := range []struct {
		name string
		r, o func() *Relation
	}{
		{"open", func() *Relation { return a }, func() *Relation { return c }},
		{"view", func() *Relation { return Rename(sa, nil) }, func() *Relation { return Rename(sc, nil) }},
		{"view-sparse", func() *Relation { return Rename(spreadA, nil) }, func() *Relation { return Rename(spreadC, nil) }},
	} {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := JoinLimited(in.r(), in.o(), nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ProjectLimited(out, proj, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("fused-"+in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := JoinProjectLimited(in.r(), in.o(), proj, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("map-baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mapBaselineJoinProject(a, c, proj)
		}
	})
}

// BenchmarkKernelDedup measures raw dedup-insert throughput: the arena +
// open-addressing relation against the old packed map set with per-row
// Tuple clones.
func BenchmarkKernelDedup(b *testing.B) {
	const n = 50000
	rng := rand.New(rand.NewSource(7))
	tuples := make([]Tuple, n)
	for i := range tuples {
		tuples[i] = Tuple{Value(rng.Intn(40)), Value(rng.Intn(40)), Value(rng.Intn(40))}
	}
	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := New([]Attr{0, 1, 2})
			for _, t := range tuples {
				r.Add(t)
			}
		}
	})
	b.Run("map-baseline", func(b *testing.B) {
		b.ReportAllocs()
		cols := identityCols(3)
		for i := 0; i < b.N; i++ {
			seen := make(map[uint64]struct{})
			var rows []Tuple
			for _, t := range tuples {
				k, _ := packKey(t, cols)
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				rows = append(rows, t.Clone())
			}
		}
	})
}

// BenchmarkKernelScanRename measures the per-scan cost of binding a base
// relation's columns to query variables — zero-copy since Rename shares
// rows and dedup state with the source.
func BenchmarkKernelScanRename(b *testing.B) {
	r := New([]Attr{0, 1})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		r.Add(Tuple{Value(rng.Intn(200)), Value(rng.Intn(200))})
	}
	m := map[Attr]Attr{0: 7, 1: 9}
	b.Run("zero-copy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Rename(r, m)
		}
	})
	b.Run("rehash-baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := New([]Attr{7, 9})
			for j := 0; j < r.n; j++ {
				out.Add(r.row(j))
			}
		}
	})
}
