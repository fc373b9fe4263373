package engine

import (
	"fmt"
	"testing"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/instance"
)

// TestDifferentialCacheOnOff runs every Figure-6–9 workload and every
// optimization method three ways — uncached, cache-enabled cold, and
// cache-enabled warm (second execution over a populated cache) — through
// both the sequential and the parallel executor, and checks that the
// result relation and the width instrumentation are identical in all of
// them. This is the contract that makes the cache safe to leave on in
// the experiment harness: figures and CSVs depend only on results and
// stats, so a cached sweep must be indistinguishable from an uncached
// one except in elapsed time.
func TestDifferentialCacheOnOff(t *testing.T) {
	db := instance.ColorDatabase(3)
	for _, w := range figureWorkloads(t) {
		q, err := instance.ColorQuery(w.g, instance.BooleanFree(w.g))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range core.Methods {
			t.Run(fmt.Sprintf("%s/%s", w.name, m), func(t *testing.T) {
				p, err := core.BuildPlan(m, q, nil)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := Exec(p, db, Options{})
				if err != nil {
					t.Fatal(err)
				}
				check := func(label string, res *Result, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !ref.Rel.Equal(res.Rel) {
						t.Fatalf("%s: relation differs (%d vs %d rows)",
							label, res.Rel.Len(), ref.Rel.Len())
					}
					r, s := ref.Stats, res.Stats
					if r.MaxArity != s.MaxArity || r.MaxRows != s.MaxRows ||
						r.Tuples != s.Tuples || r.Work != s.Work ||
						r.Joins != s.Joins || r.Projections != s.Projections ||
						r.MaterializedTuples != s.MaterializedTuples {
						t.Fatalf("%s: instrumentation differs:\nref  %+v\ngot  %+v",
							label, r, s)
					}
				}

				c := NewCache(0)
				cold, err := Exec(p, db, Options{Cache: c})
				check("sequential cold", cold, err)
				if cold.Stats.CacheMisses == 0 {
					t.Fatal("sequential cold run recorded no misses")
				}
				warm, err := Exec(p, db, Options{Cache: c})
				check("sequential warm", warm, err)
				if warm.Stats.CacheHits == 0 {
					t.Fatal("sequential warm run recorded no hits")
				}

				// A fresh cache for the parallel executor, then a warm
				// cross-executor pass: parallel running over entries the
				// sequential executor stored, and vice versa.
				pc := NewCache(0)
				pcold, err := ExecParallel(p, db, Options{Cache: pc}, 4)
				check("parallel cold", pcold, err)
				pwarm, err := ExecParallel(p, db, Options{Cache: pc}, 4)
				check("parallel warm", pwarm, err)
				if pwarm.Stats.CacheHits == 0 {
					t.Fatal("parallel warm run recorded no hits")
				}
				crossSeq, err := Exec(p, db, Options{Cache: pc})
				check("sequential over parallel-built cache", crossSeq, err)
				crossPar, err := ExecParallel(p, db, Options{Cache: c}, 4)
				check("parallel over sequential-built cache", crossPar, err)
			})
		}
	}
}

// TestDifferentialStreamCacheOnOff runs the streaming engine uncached,
// cache-enabled cold, and cache-enabled warm over workloads whose
// pushdown sweeps genuinely remove tuples (the selective chain) and the
// figure workloads, checking that the result relation and the reduction
// instrumentation are identical in all three. The warm run must hit on
// every base scan — its sweeps are skipped entirely — yet still report
// the same ReducedTuples as the run that performed them.
func TestDifferentialStreamCacheOnOff(t *testing.T) {
	type workload struct {
		name string
		q    *cq.Query
		db   cq.Database
	}
	var workloads []workload
	cq5, cdb5 := selectiveChain(5, 400, 250, 9)
	workloads = append(workloads, workload{"selective-chain", cq5, cdb5})
	colorDB := instance.ColorDatabase(3)
	for _, w := range figureWorkloads(t) {
		q, err := instance.ColorQuery(w.g, instance.BooleanFree(w.g))
		if err != nil {
			t.Fatal(err)
		}
		workloads = append(workloads, workload{w.name, q, colorDB})
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p, err := core.BuildPlan(core.MethodStream, w.q, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := ExecStream(p, w.db, Options{})
			if err != nil {
				t.Fatal(err)
			}
			check := func(label string, res *Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !ref.Rel.Equal(res.Rel) {
					t.Fatalf("%s: relation differs (%d vs %d rows)",
						label, res.Rel.Len(), ref.Rel.Len())
				}
				if ref.Stats.ReducedTuples != res.Stats.ReducedTuples {
					t.Fatalf("%s: ReducedTuples = %d, uncached run %d",
						label, res.Stats.ReducedTuples, ref.Stats.ReducedTuples)
				}
			}
			scans := len(w.q.Atoms)
			c := NewCache(0)
			cold, err := ExecStream(p, w.db, Options{Cache: c})
			check("cold", cold, err)
			if cold.Stats.CacheMisses != int64(scans) || cold.Stats.CacheHits != 0 {
				t.Fatalf("cold run: hits=%d misses=%d, want 0/%d",
					cold.Stats.CacheHits, cold.Stats.CacheMisses, scans)
			}
			warm, err := ExecStream(p, w.db, Options{Cache: c})
			check("warm", warm, err)
			if warm.Stats.CacheHits != int64(scans) || warm.Stats.CacheMisses != 0 {
				t.Fatalf("warm run: hits=%d misses=%d, want %d/0",
					warm.Stats.CacheHits, warm.Stats.CacheMisses, scans)
			}
		})
	}
}

// TestDifferentialIteratorUnchanged pins that the iterator executor —
// which ignores the cache — still matches the materializing executor on
// the figure workloads after its port onto the packed-key kernels.
func TestDifferentialIteratorUnchanged(t *testing.T) {
	db := instance.ColorDatabase(3)
	for _, w := range figureWorkloads(t) {
		q, err := instance.ColorQuery(w.g, instance.BooleanFree(w.g))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range core.Methods {
			t.Run(fmt.Sprintf("%s/%s", w.name, m), func(t *testing.T) {
				p, err := core.BuildPlan(m, q, nil)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := Exec(p, db, Options{})
				if err != nil {
					t.Fatal(err)
				}
				got, err := ExecIterator(p, db, Options{Cache: NewCache(0)})
				if err != nil {
					t.Fatal(err)
				}
				if !ref.Rel.Equal(got.Rel) {
					t.Fatalf("iterator relation differs (%d vs %d rows)",
						got.Rel.Len(), ref.Rel.Len())
				}
			})
		}
	}
}
