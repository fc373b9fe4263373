package relation

import (
	"fmt"
	"math/rand"
	"testing"
)

// Semijoin kernel microbenchmarks across survivor rates: SemijoinFilter
// into a private relation, which builds a key set over the source and
// scans the whole target (filter), against SemijoinFilter into a zero-copy
// view of a stored relation, which walks the source into the stored
// arena's column index and copies the survivors out (view). The filter
// pays for the target's rows at every rate, compacting almost nothing at
// 99% and returning its receiver at 100%; the view pays for the source and
// the survivors. `make bench-json` pins the BenchmarkKernel* series in
// BENCH_relation.json.

// semijoinInputs builds R(0,1) with `rows` tuples and S(1) holding the
// fraction of the domain that makes ~hit of R's tuples survive R ⋉ S.
func semijoinInputs(rows, domain int, hit float64) (*Relation, *Relation) {
	rng := rand.New(rand.NewSource(7))
	r := New([]Attr{0, 1})
	for i := 0; i < rows; i++ {
		r.Add(Tuple{Value(i), Value(rng.Intn(domain))})
	}
	s := New([]Attr{1})
	keep := int(hit*float64(domain) + 0.5)
	for _, v := range rng.Perm(domain)[:keep] {
		s.Add(Tuple{Value(v)})
	}
	return r, s
}

func BenchmarkKernelSemijoin(b *testing.B) {
	const rows, domain = 100_000, 1000
	for _, hit := range []float64{0.01, 0.50, 0.99} {
		r, s := semijoinInputs(rows, domain, hit)
		b.Run(fmt.Sprintf("hit=%d%%/view", int(hit*100)), func(b *testing.B) {
			r.columnIndex(1) // resident: built once per stored arena, outside the timer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, _, err := SemijoinFilter(Rename(r, nil), s, nil)
				if err != nil {
					b.Fatal(err)
				}
				_ = out
			}
		})
		b.Run(fmt.Sprintf("hit=%d%%/filter", int(hit*100)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// The filter consumes its receiver; clone outside the
				// timed region so only the kernel is measured.
				b.StopTimer()
				in := r.Clone()
				b.StartTimer()
				out, _, err := SemijoinFilter(in, s, nil)
				if err != nil {
					b.Fatal(err)
				}
				_ = out
			}
		})
	}
}
