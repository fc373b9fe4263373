package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/relation"
)

// TestDifferentialCacheOnOff runs every Figure-6–9 workload and every
// optimization method three ways — uncached, cache-enabled cold, and
// cache-enabled warm (second execution over a populated cache) — and
// checks that the result relation and the width instrumentation are
// identical in all of them. This is the contract that makes the cache safe to leave on in
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
				check("cold", cold, err)
				if cold.Stats.CacheMisses == 0 {
					t.Fatal("cold run recorded no misses")
				}
				warm, err := Exec(p, db, Options{Cache: c})
				check("warm", warm, err)
				if warm.Stats.CacheHits == 0 {
					t.Fatal("warm run recorded no hits")
				}
			})
		}
	}
}

// randomRel is a binary relation of up to rows random tuples over [0,dom)².
func randomRel(rng *rand.Rand, rows, dom int) *relation.Relation {
	r := relation.New([]relation.Attr{0, 1})
	for i := 0; i < rows; i++ {
		r.Add(relation.Tuple{relation.Value(rng.Intn(dom)), relation.Value(rng.Intn(dom))})
	}
	return r
}

// selectiveSpider and selectiveAugPath are stream_bench_test.go's other two
// selective shapes at test scale: the two-level star a_i(x0,y_i),
// b_i(y_i,z_i) whose arm end b0 has 4 rows, and the augmented path whose
// dangling edges are 6-row relations.
func selectiveSpider(arms, rows, dom int, seed int64) (*cq.Query, cq.Database) {
	rng := rand.New(rand.NewSource(seed))
	db := cq.Database{}
	q := &cq.Query{Free: []cq.Var{0}}
	for i := 0; i < arms; i++ {
		inner, outer := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		y, z := cq.Var(1+2*i), cq.Var(2+2*i)
		db[inner], db[outer] = randomRel(rng, rows, dom), randomRel(rng, rows, dom)
		if i == 0 {
			db[outer] = randomRel(rng, 4, dom) // the selective arm
		}
		q.Atoms = append(q.Atoms,
			cq.Atom{Rel: inner, Args: []cq.Var{0, y}},
			cq.Atom{Rel: outer, Args: []cq.Var{y, z}})
	}
	return q, db
}

func selectiveAugPath(order, rows, dom int, seed int64) (*cq.Query, cq.Database) {
	rng := rand.New(rand.NewSource(seed))
	db := cq.Database{}
	q := &cq.Query{Free: []cq.Var{0, 1}}
	for i, e := range graph.AugmentedPath(order).Edges {
		name := fmt.Sprintf("e%d", i)
		db[name] = randomRel(rng, rows, dom)
		if e[1] >= order { // dangling partners are numbered after the path
			db[name] = randomRel(rng, 6, dom)
		}
		q.Atoms = append(q.Atoms, cq.Atom{Rel: name, Args: []cq.Var{cq.Var(e[0]), cq.Var(e[1])}})
	}
	return q, db
}

// TestDifferentialStreamCacheOnOff runs the streaming engine uncached,
// cache-enabled cold, and cache-enabled warm over workloads whose
// pushdown sweeps genuinely remove tuples (the selective chain, spider and
// augmented path), checking that the result relation and the reduction
// instrumentation are identical in all three. The warm run must hit on
// every base scan — its sweeps are skipped entirely — yet still report
// the same ReducedTuples as the run that performed them. On the figure
// workloads no sweep can remove a tuple of 3-COLOR's edge relation, the
// phase is skipped, and a run looks nothing up.
func TestDifferentialStreamCacheOnOff(t *testing.T) {
	type workload struct {
		name   string
		q      *cq.Query
		db     cq.Database
		sweeps bool
	}
	var workloads []workload
	chainQ, chainDB := selectiveChain(5, 400, 250, 9)
	spiderQ, spiderDB := selectiveSpider(4, 300, 120, 5)
	augQ, augDB := selectiveAugPath(6, 300, 40, 7)
	workloads = append(workloads,
		workload{"selective-chain", chainQ, chainDB, true},
		workload{"selective-spider", spiderQ, spiderDB, true},
		workload{"selective-augpath", augQ, augDB, true})
	colorDB := instance.ColorDatabase(3)
	for _, w := range figureWorkloads(t) {
		q, err := instance.ColorQuery(w.g, instance.BooleanFree(w.g))
		if err != nil {
			t.Fatal(err)
		}
		workloads = append(workloads, workload{w.name, q, colorDB, false})
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
			if (ref.Stats.ReducedTuples > 0) != w.sweeps {
				t.Fatalf("uncached run reduced %d tuples, sweeps expected: %v", ref.Stats.ReducedTuples, w.sweeps)
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
			scans := int64(len(w.q.Atoms))
			if !w.sweeps {
				scans = 0
			}
			c := NewCache(0)
			cold, err := ExecStream(p, w.db, Options{Cache: c})
			check("cold", cold, err)
			if cold.Stats.CacheMisses != scans || cold.Stats.CacheHits != 0 {
				t.Fatalf("cold run: hits=%d misses=%d, want 0/%d",
					cold.Stats.CacheHits, cold.Stats.CacheMisses, scans)
			}
			warm, err := ExecStream(p, w.db, Options{Cache: c})
			check("warm", warm, err)
			if warm.Stats.CacheHits != scans || warm.Stats.CacheMisses != 0 {
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
