package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/relation"
)

// TestStreamDifferentialFigureWorkloads checks the streaming executor
// against the materializing one and the backtracking oracle on every
// Figure-6–9 workload, across the plan shapes it will actually be handed
// (left-deep with projections, bushy, and the exponential left-deep
// straightforward chains).
func TestStreamDifferentialFigureWorkloads(t *testing.T) {
	for _, w := range figureWorkloads(t) {
		for _, free := range [][]cq.Var{instance.BooleanFree(w.g), {0, 1}} {
			q, err := instance.ColorQuery(w.g, free)
			if err != nil {
				t.Fatal(err)
			}
			db := instance.ColorDatabase(3)
			oracle, err := EvalOracle(q, db)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range core.Methods {
				t.Run(fmt.Sprintf("%s/free=%d/%s", w.name, len(free), m), func(t *testing.T) {
					p, err := core.BuildPlan(m, q, nil)
					if err != nil {
						t.Fatal(err)
					}
					exec, err := Exec(p, db, Options{})
					if err != nil {
						t.Fatal(err)
					}
					stream, err := ExecStreamContext(context.Background(), p, db, Options{})
					if err != nil {
						t.Fatal(err)
					}
					if !stream.Rel.Equal(exec.Rel) {
						t.Fatalf("stream relation differs from Exec (%d vs %d rows)",
							stream.Rel.Len(), exec.Rel.Len())
					}
					if !stream.Rel.Equal(oracle) {
						t.Fatalf("stream relation differs from oracle (%d vs %d rows)",
							stream.Rel.Len(), oracle.Len())
					}
				})
			}
		}
	}
}

// TestStreamDifferentialRandomGraphs sweeps random sparse (mostly
// acyclic) and dense (cyclic) graphs through the streaming executor and
// compares against the oracle — the pushdown pre-pass must stay sound on
// arbitrary join structure, including cycles where every scan pair
// reduces every other.
func TestStreamDifferentialRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := instance.ColorDatabase(3)
	for trial := 0; trial < 24; trial++ {
		n := 4 + rng.Intn(3)
		maxM := n * (n - 1) / 2
		m := 1 + rng.Intn(maxM)
		g, err := graph.Random(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		free := instance.BooleanFree(g)
		if trial%2 == 0 {
			free = []cq.Var{0}
		}
		q, err := instance.ColorQuery(g, free)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := EvalOracle(q, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, method := range []core.Method{core.MethodEarlyProjection, core.MethodBucketElimination} {
			p, err := core.BuildPlan(method, q, rng)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ExecStreamContext(context.Background(), p, db, Options{})
			if err != nil {
				t.Fatalf("trial %d (%s, n=%d m=%d): %v", trial, method, n, m, err)
			}
			if !res.Rel.Equal(oracle) {
				t.Fatalf("trial %d (%s, n=%d m=%d): stream result differs from oracle (%d vs %d rows)",
					trial, method, n, m, res.Rel.Len(), oracle.Len())
			}
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

// selectiveSpider is stream_bench_test.go's spider at test scale: the
// two-level star a_i(x0,y_i), b_i(y_i,z_i) whose arm end b0 has 4 rows.
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

// selectiveChain builds the Figure-6-style selective path workload the
// streaming engine exists for: a chain of random binary relations with a
// tiny head, so pushdown shrinks every hop before any join runs.
func selectiveChain(atoms, rows, dom int, seed int64) (*cq.Query, cq.Database) {
	rng := rand.New(rand.NewSource(seed))
	db := cq.Database{}
	q := &cq.Query{Free: []cq.Var{0, 1}}
	for i := 0; i < atoms; i++ {
		n := rows
		if i == 0 {
			n = 5 // the selective head
		}
		name := fmt.Sprintf("r%d", i)
		db[name] = randomRel(rng, n, dom)
		q.Atoms = append(q.Atoms, cq.Atom{Rel: name, Args: []cq.Var{cq.Var(i), cq.Var(i + 1)}})
	}
	return q, db
}

// TestStreamPeakBytesReduction pins the pushdown phase's acceptance
// property at test scale: on the selective chain, the largest state the
// streaming engine materializes (Stats.MaxRows) is at least 5x below the
// iterator engine's on the same plan, with identical results and no more
// peak live bytes. The 5x is on rows, not bytes: the iterator's builds
// over whole stored relations probe their resident column indexes and
// hold no bytes, so its peak no longer counts those relations.
func TestStreamPeakBytesReduction(t *testing.T) {
	q, db := selectiveChain(5, 500, 300, 11)
	p, err := core.BuildPlan(core.MethodEarlyProjection, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	iter, err := ExecIterator(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := ExecStreamContext(context.Background(), p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !stream.Rel.Equal(iter.Rel) {
		t.Fatalf("stream relation differs from iterator (%d vs %d rows)",
			stream.Rel.Len(), iter.Rel.Len())
	}
	if stream.Stats.MaxRows*5 > iter.Stats.MaxRows {
		t.Fatalf("largest state not reduced 5x: stream=%d rows iterator=%d rows",
			stream.Stats.MaxRows, iter.Stats.MaxRows)
	}
	if stream.Stats.PeakBytes > iter.Stats.PeakBytes {
		t.Fatalf("peak bytes rose: stream=%d iterator=%d",
			stream.Stats.PeakBytes, iter.Stats.PeakBytes)
	}
	if stream.Stats.ReducedTuples == 0 {
		t.Fatal("pushdown removed no tuples on the selective chain")
	}
}

// TestStreamLiveBudget pins the live-byte (rather than cumulative)
// accounting of both streaming engines: a run fits exactly inside a
// budget equal to its own reported peak — under the old accumulate-only
// accounting a multi-join chain's cumulative charge exceeds its peak and
// would trip ErrMemLimit — while a fraction of the peak still fails.
func TestStreamLiveBudget(t *testing.T) {
	q, db := selectiveChain(5, 500, 300, 11)
	p, err := core.BuildPlan(core.MethodEarlyProjection, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	type engineFn struct {
		name string
		run  func(opt Options) (*Result, error)
	}
	engines := []engineFn{
		{"iterator", func(opt Options) (*Result, error) { return ExecIterator(p, db, opt) }},
		{"stream", func(opt Options) (*Result, error) { return ExecStreamContext(context.Background(), p, db, opt) }},
	}
	for _, e := range engines {
		free, err := e.run(Options{})
		if err != nil {
			t.Fatal(err)
		}
		peak := free.Stats.Bytes
		if peak == 0 {
			t.Fatalf("%s: peak bytes not instrumented", e.name)
		}
		if peak != free.Stats.PeakBytes {
			t.Fatalf("%s: Bytes=%d != PeakBytes=%d", e.name, peak, free.Stats.PeakBytes)
		}
		if _, err := e.run(Options{MaxBytes: peak}); err != nil {
			t.Fatalf("%s: run does not fit its own peak %d: %v", e.name, peak, err)
		}
		if _, err := e.run(Options{MaxBytes: peak / 8}); !errors.Is(err, ErrMemLimit) {
			t.Fatalf("%s: budget peak/8: err = %v, want ErrMemLimit", e.name, err)
		}
	}
	// The iterator run materializes several hash tables over the chain;
	// fitting in a budget equal to the peak is only meaningful if the
	// cumulative charge is genuinely larger, i.e. state was released.
	iter, err := ExecIterator(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cumulative int64
	for _, a := range q.Atoms[1:] {
		cumulative += db[a.Rel].Bytes() / 2 // half: arena only, no keys
	}
	if cumulative <= iter.Stats.Bytes {
		t.Skipf("workload too small to separate cumulative (%d) from peak (%d)",
			cumulative, iter.Stats.Bytes)
	}
}

// TestExplainStreamAnalyze checks the EXPLAIN ANALYZE operator tree: one
// line per fused operator with rows/bytes/peak counters, pushdown
// reductions on the scans, and the peak-live trailer.
func TestExplainStreamAnalyze(t *testing.T) {
	q, db := selectiveChain(4, 200, 150, 7)
	p, err := core.BuildPlan(core.MethodEarlyProjection, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := NewPipeline(p).Explain(db, Options{MaxBytes: 1 << 20}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"stream pipeline",
		"rows=", "bytes=", "peak=",
		"reduced=",
		"build=",
		"bytes peak live (budget 1048576)",
		"tuples: materialized=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("EXPLAIN ANALYZE output missing %q:\n%s", want, out)
		}
	}
	structural, err := NewPipeline(p).Explain(db, Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(structural, "rows=") {
		t.Fatalf("structural EXPLAIN must not carry row counts:\n%s", structural)
	}
	if !strings.Contains(structural, "arity=") {
		t.Fatalf("structural EXPLAIN missing arity:\n%s", structural)
	}
}

// TestStreamRowAndTimeLimits checks the streaming engine surfaces the
// governor's other sentinels like the sibling executors. Row caps bound
// materialized state — for a streaming run that is the pipeline-breaker
// contents and the final result, so the cap is exercised with a free
// variable set large enough that the result itself blows it.
func TestStreamRowAndTimeLimits(t *testing.T) {
	g := graph.Path(8)
	all := make([]cq.Var, 8)
	for i := range all {
		all[i] = cq.Var(i)
	}
	q, err := instance.ColorQuery(g, all)
	if err != nil {
		t.Fatal(err)
	}
	db := instance.ColorDatabase(3)
	p, err := core.BuildPlan(core.MethodStraightforward, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 3*2^7 = 384 proper colorings of the path blow a 100-row cap.
	if _, err := ExecStreamContext(context.Background(), p, db, Options{MaxRows: 100}); !errors.Is(err, ErrRowLimit) {
		t.Fatalf("row cap: err = %v, want ErrRowLimit", err)
	}

	big := graph.AugmentedCircularLadder(14)
	bq, err := instance.ColorQuery(big, instance.BooleanFree(big))
	if err != nil {
		t.Fatal(err)
	}
	bp, err := core.BuildPlan(core.MethodStraightforward, bq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecStreamContext(context.Background(), bp, db, Options{Timeout: 5 * time.Millisecond}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("timeout: err = %v, want ErrTimeout", err)
	}
}
