package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/plan"
	"projpush/internal/relation"
)

// pathPlan builds π{free}(edge(v0,v1) ⋈ edge(v1,v2) ⋈ ...) over the
// 3-COLOR edge relation, with variables offset by base so structurally
// identical plans over disjoint variable names are easy to make.
func pathPlan(length int, base cq.Var) plan.Node {
	var n plan.Node = &plan.Scan{Atom: cq.Atom{Rel: "edge", Args: []cq.Var{base, base + 1}}}
	for i := 1; i < length; i++ {
		right := &plan.Scan{Atom: cq.Atom{Rel: "edge", Args: []cq.Var{base + cq.Var(i), base + cq.Var(i) + 1}}}
		n = &plan.Join{Left: n, Right: right}
	}
	return &plan.Project{Cols: []cq.Var{base}, Child: n}
}

func TestCacheHitAcrossRenamedPlans(t *testing.T) {
	db := instance.ColorDatabase(3)
	c := NewCache(0)

	first, err := Exec(pathPlan(4, 0), db, Options{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.CacheHits != 0 || first.Stats.CacheMisses == 0 {
		t.Fatalf("cold run: hits=%d misses=%d", first.Stats.CacheHits, first.Stats.CacheMisses)
	}

	// Same structure over entirely different variable names: the root
	// lookup must hit, so the run performs no joins at all.
	second, err := Exec(pathPlan(4, 100), db, Options{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.CacheHits != 1 || second.Stats.CacheMisses != 0 {
		t.Fatalf("warm run: hits=%d misses=%d, want 1/0", second.Stats.CacheHits, second.Stats.CacheMisses)
	}
	if got, want := second.Rel.Attrs()[0], 100; got != want {
		t.Fatalf("warm result bound to attr %d, want %d", got, want)
	}
	if first.Rel.Len() != second.Rel.Len() {
		t.Fatalf("cardinality drifted: %d vs %d", first.Rel.Len(), second.Rel.Len())
	}
	// The replayed instrumentation must match the cold run exactly.
	f, s := first.Stats, second.Stats
	if f.MaxRows != s.MaxRows || f.MaxArity != s.MaxArity || f.Tuples != s.Tuples ||
		f.Work != s.Work || f.Joins != s.Joins || f.Projections != s.Projections ||
		f.Bytes != s.Bytes || f.PeakBytes != s.PeakBytes {
		t.Fatalf("replayed stats differ:\ncold %+v\nwarm %+v", f, s)
	}
}

func TestCacheDistinguishesDatabases(t *testing.T) {
	c := NewCache(0)
	p := pathPlan(3, 0)
	r3, err := Exec(p, instance.ColorDatabase(3), Options{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Exec(p, instance.ColorDatabase(2), Options{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.CacheHits != 0 {
		t.Fatalf("2-color run hit 3-color entries (%d hits)", r2.Stats.CacheHits)
	}
	// 2-COLOR on an even path is satisfiable, 3-COLOR too; the point is
	// the results came from the right database.
	if r3.Rel.Len() == r2.Rel.Len() {
		t.Fatalf("suspicious: same cardinality %d from different databases", r3.Rel.Len())
	}
}

func TestCacheRowCapHonesty(t *testing.T) {
	g := graph.AugmentedPath(8)
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.BuildPlan(core.MethodStraightforward, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := instance.ColorDatabase(3)
	c := NewCache(0)
	// Populate the cache with an uncapped run whose intermediates are
	// large...
	if _, err := Exec(p, db, Options{Cache: c}); err != nil {
		t.Fatal(err)
	}
	// ...then a capped run must still report the violation instead of
	// serving the oversized result from cache.
	if _, err := Exec(p, db, Options{Cache: c, MaxRows: 100}); !errors.Is(err, ErrRowLimit) {
		t.Fatalf("capped warm run: err = %v, want ErrRowLimit", err)
	}
}

func TestCacheEvictionRespectsBudget(t *testing.T) {
	// Small budget; entries large enough to force eviction inside a
	// shard. Drive put/get directly to keep the scenario exact.
	c := NewCache(16 << 10)
	mk := func(seed int) *relation.Relation {
		r := relation.New([]relation.Attr{0, 1})
		for i := 0; i < 8; i++ {
			r.Add(relation.Tuple{relation.Value(seed), relation.Value(i)})
		}
		return r
	}
	for i := 0; i < 64; i++ {
		c.put(fmt.Sprintf("key-%d", i), mk(i), Stats{})
	}
	cc := c.Counters()
	if cc.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget: %+v", 16<<10, cc)
	}
	if cc.Bytes > 16<<10 {
		t.Fatalf("accounted bytes %d exceed budget %d", cc.Bytes, 16<<10)
	}
	per := int64(len(c.shards))
	if cc.Entries+cc.Evictions < 64-per {
		t.Fatalf("entries %d + evictions %d do not account for 64 puts", cc.Entries, cc.Evictions)
	}
	// An entry bigger than a shard's share is refused outright.
	big := relation.New([]relation.Attr{0})
	for i := 0; i < 16384; i++ {
		big.Add(relation.Tuple{relation.Value(i)})
	}
	before := c.Counters().Entries
	c.put("oversized", big, Stats{})
	if after := c.Counters().Entries; after != before {
		t.Fatalf("oversized entry was admitted (%d -> %d entries)", before, after)
	}
}

func TestCacheConcurrentMixedExecutors(t *testing.T) {
	// The plan walker (subtree entries) and the stream engine (reduced
	// scans) sharing one cache must agree with an uncached reference; run
	// them concurrently so `-race` sweeps the shard locking and the shared
	// cached relations.
	g := graph.Ladder(6)
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	db := instance.ColorDatabase(3)
	p, err := core.BuildPlan(core.MethodBucketElimination, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Exec(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(0)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		i := i
		go func() {
			run := Exec
			if i%2 == 1 {
				run = ExecStream
			}
			res, err := run(p, db, Options{Cache: c})
			if err == nil && !res.Rel.Equal(ref.Rel) {
				err = fmt.Errorf("goroutine %d: relation differs", i)
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	cc := c.Counters()
	if cc.Hits == 0 {
		t.Fatalf("eight identical executions produced no cache hits: %+v", cc)
	}
}

func TestExplainReportsCache(t *testing.T) {
	db := instance.ColorDatabase(3)
	c := NewCache(0)
	p := pathPlan(3, 0)
	if _, err := Exec(p, db, Options{Cache: c}); err != nil {
		t.Fatal(err)
	}
	out, err := Explain(p, db, Options{Cache: c}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(cached)") {
		t.Fatalf("EXPLAIN ANALYZE lacks (cached) markers:\n%s", out)
	}
	if !strings.Contains(out, "cache: run hits=") {
		t.Fatalf("EXPLAIN ANALYZE lacks the cache summary line:\n%s", out)
	}
}
