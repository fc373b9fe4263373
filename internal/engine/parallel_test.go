package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"projpush/internal/cq"
	"projpush/internal/plan"
	"projpush/internal/relation"
)

func TestExecParallelMatchesSequential(t *testing.T) {
	db := edgeDB()
	for _, n := range []int{3, 5, 7} {
		q := cycleQuery(n)
		p := straightforward(q)
		a, err := Exec(p, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := ExecParallel(p, db, Options{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Rel.Equal(b.Rel) {
			t.Fatalf("cycle %d: parallel result differs", n)
		}
		if b.Stats.Joins != a.Stats.Joins || b.Stats.Projections != a.Stats.Projections {
			t.Fatalf("cycle %d: operator counts differ: %+v vs %+v", n, b.Stats, a.Stats)
		}
	}
}

func TestExecParallelBushyPlan(t *testing.T) {
	// A genuinely bushy plan: two independent 3-chains joined at the
	// top. Both sides are non-trivial subtrees, so they fork.
	db := edgeDB()
	side := func(base cq.Var) plan.Node {
		return &plan.Project{
			Child: &plan.Join{
				Left:  scan(base, base+1),
				Right: scan(base+1, base+2),
			},
			Cols: []cq.Var{base, base + 2},
		}
	}
	p := &plan.Project{
		Child: &plan.Join{Left: side(0), Right: side(2)},
		Cols:  []cq.Var{0, 4},
	}
	a, err := Exec(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		b, err := ExecParallel(p, db, Options{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Rel.Equal(b.Rel) {
			t.Fatalf("workers=%d: parallel result differs", workers)
		}
	}
}

func TestExecParallelRandomPlans(t *testing.T) {
	db := edgeDB()
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		// Random bushy join shape over a chain of variables.
		nvars := 4 + rng.Intn(4)
		var build func(lo, hi int) plan.Node
		build = func(lo, hi int) plan.Node {
			if hi-lo == 1 {
				return scan(lo, lo+1)
			}
			mid := lo + 1 + rng.Intn(hi-lo-1)
			j := &plan.Join{Left: build(lo, mid), Right: build(mid, hi)}
			if rng.Intn(2) == 0 {
				return &plan.Project{Child: j, Cols: []cq.Var{lo, hi}}
			}
			return j
		}
		p := &plan.Project{Child: build(0, nvars), Cols: []cq.Var{0}}
		a, err := Exec(p, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := ExecParallel(p, db, Options{}, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Rel.Equal(b.Rel) {
			t.Fatalf("trial %d: parallel differs", trial)
		}
	}
}

func TestExecParallelTimeout(t *testing.T) {
	q := cycleQuery(13)
	_, err := ExecParallel(straightforward(q), edgeDB(), Options{Timeout: time.Nanosecond}, 4)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestExecParallelRowCap(t *testing.T) {
	q := cycleQuery(9)
	_, err := ExecParallel(straightforward(q), edgeDB(), Options{MaxRows: 10}, 4)
	if !errors.Is(err, ErrRowLimit) {
		t.Fatalf("err = %v, want ErrRowLimit", err)
	}
}

func TestExecParallelDegeneratesToSequential(t *testing.T) {
	q := cycleQuery(4)
	p := straightforward(q)
	a, err := ExecParallel(p, edgeDB(), Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rel.Len() != 3 {
		t.Fatalf("workers=0 result: %v", a.Rel)
	}
}

// TestExecParallelReportsSequentialStats pins the folded walker's stats
// framing: a forked subtree evaluates into a private frame merged at the
// join, so four workers must report exactly what one does — operator
// counts, tuples, bytes, materialization and the subplan cache's hit/miss
// split, cold and warm — on a bushy plan whose sides fork. Run under -race
// it is also the check that no frame is shared between goroutines. The
// joins stay under the partitioning threshold: a partitioned join returns
// the same tuples in a differently laid-out relation (no dedup table
// until one is needed), so there Bytes is a property of the kernel, not
// of the framing.
func TestExecParallelReportsSequentialStats(t *testing.T) {
	// Four distinct relations, so no two subtrees share a fingerprint and
	// the cold run's misses cannot depend on which side got there first.
	rng := rand.New(rand.NewSource(17))
	db := cq.Database{}
	for _, name := range []string{"a", "b", "c", "d"} {
		rel := relation.New([]relation.Attr{0, 1})
		for i := 0; i < 500; i++ {
			rel.Add(relation.Tuple{relation.Value(rng.Intn(400)), relation.Value(rng.Intn(400))})
		}
		db[name] = rel
	}
	side := func(l, r string, base cq.Var) plan.Node {
		return &plan.Project{
			Child: &plan.Join{
				Left:  &plan.Scan{Atom: cq.Atom{Rel: l, Args: []cq.Var{base, base + 1}}},
				Right: &plan.Scan{Atom: cq.Atom{Rel: r, Args: []cq.Var{base + 1, base + 2}}},
			},
			Cols: []cq.Var{base, base + 2},
		}
	}
	p := &plan.Project{
		Child: &plan.Join{Left: side("a", "b", 0), Right: side("c", "d", 2)},
		Cols:  []cq.Var{0, 4},
	}
	type counters struct {
		joins, projections         int
		tuples, bytes, materialize int64
		hits, misses               int64
	}
	run := func(workers int, c *Cache) counters {
		t.Helper()
		res, err := ExecParallel(p, db, Options{Cache: c}, workers)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		return counters{st.Joins, st.Projections, st.Tuples, st.Bytes, st.MaterializedTuples, st.CacheHits, st.CacheMisses}
	}
	var want [2]counters
	for _, workers := range []int{1, 4} {
		c := NewCache(0)
		got := [2]counters{run(workers, c), run(workers, c)}
		if workers == 1 {
			want = got
			if want[0].misses == 0 || want[1].hits == 0 {
				t.Fatalf("cache idle: cold %+v warm %+v", want[0], want[1])
			}
			continue
		}
		for i, label := range []string{"cold", "warm"} {
			if got[i] != want[i] {
				t.Errorf("%s at workers=%d: %s\nwant (workers=1) %s", label, workers,
					fmt.Sprintf("%+v", got[i]), fmt.Sprintf("%+v", want[i]))
			}
		}
	}
}
