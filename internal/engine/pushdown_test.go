package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/plan"
	"projpush/internal/relation"
)

// skipRuleDB is a small database built to sit on both sides of mayReduce:
// two dense relations over one range (rows differ, value sets do not), one
// over the same range shifted by one, a dense ternary one, a sparse one
// over a wider range, one whose first column spans the dense range but
// holds only its two ends, and an empty one.
func skipRuleDB(rng *rand.Rand) cq.Database {
	const k = 4
	dense := func(arity int, shift relation.Value) *relation.Relation {
		attrs := make([]relation.Attr, arity)
		for i := range attrs {
			attrs[i] = i
		}
		r := relation.New(attrs)
		// Every value in every column, then some random rows on top.
		for v := 0; v < k; v++ {
			t := make(relation.Tuple, arity)
			for j := range t {
				t[j] = relation.Value((v+j)%k) + shift
			}
			r.Add(t)
		}
		for i := rng.Intn(2 * k); i > 0; i-- {
			t := make(relation.Tuple, arity)
			for j := range t {
				t[j] = relation.Value(rng.Intn(k)) + shift
			}
			r.Add(t)
		}
		return r
	}
	sparse := relation.New([]relation.Attr{0, 1})
	for i := 0; i < 5; i++ {
		sparse.Add(relation.Tuple{relation.Value(rng.Intn(3 * k)), relation.Value(rng.Intn(3 * k))})
	}
	gappy := relation.New([]relation.Attr{0, 1})
	for v := 0; v < k; v++ {
		gappy.Add(relation.Tuple{relation.Value(v % 2 * (k - 1)), relation.Value(v)})
	}
	return cq.Database{
		"d": dense(2, 0), "d2": dense(2, 0), "shifted": dense(2, 1), "t": dense(3, 0),
		"sparse": sparse, "gappy": gappy, "empty": relation.New([]relation.Attr{0, 1}),
	}
}

// skipRuleQuery draws a query over skipRuleDB. kind forces the shapes the
// rule's second clause is about — parallel atoms over two relations and
// over one relation read both ways — and otherwise atoms land at random,
// mostly on the dense relations so that self-joins and provable skips are
// common.
func skipRuleQuery(rng *rand.Rand, kind int) *cq.Query {
	rels := []string{"d", "d", "d", "d2", "d2", "t", "shifted", "sparse", "gappy", "empty"}
	if kind%2 == 0 {
		rels = rels[:6] // dense over one range only: the rule decides on the shape
	}
	arity := map[string]int{"t": 3}
	q := &cq.Query{}
	switch kind % 6 {
	case 1:
		q.Atoms = []cq.Atom{{Rel: "d", Args: []cq.Var{0, 1}}, {Rel: "d2", Args: []cq.Var{0, 1}}}
	case 2:
		q.Atoms = []cq.Atom{{Rel: "d", Args: []cq.Var{0, 1}}, {Rel: "d", Args: []cq.Var{1, 0}}}
	case 3:
		q.Atoms = []cq.Atom{{Rel: "t", Args: []cq.Var{0, 1, 2}}, {Rel: "t", Args: []cq.Var{0, 1, 3}}}
	}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		rel := rels[rng.Intn(len(rels))]
		a := arity[rel]
		if a == 0 {
			a = 2
		}
		q.Atoms = append(q.Atoms, cq.Atom{Rel: rel, Args: rng.Perm(5)[:a]})
	}
	vars := q.Vars()
	rng.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
	q.Free = vars[:min(rng.Intn(4), len(vars))]
	return q
}

// TestPushdownSkipRule is the property behind skipping the pushdown phase:
// whenever mayReduce says no sweep can remove a tuple, the sweeps over the
// collected edges remove none and NewPipeline's Stats are ExecIterator's;
// whichever way it says, the answer is the oracle's.
func TestPushdownSkipRule(t *testing.T) {
	rng := rand.New(rand.NewSource(20041))
	skipped, swept, reduced := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		db := skipRuleDB(rng)
		q := skipRuleQuery(rng, trial)
		want, err := EvalOracle(q, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, method := range []core.Method{core.MethodEarlyProjection, core.MethodBucketElimination} {
			p, err := core.BuildPlan(method, q, rng)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("trial %d %s %v free %v", trial, method, q.Atoms, q.Free)
			stream, err := ExecStreamContext(context.Background(), p, db, Options{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !stream.Rel.Equal(want) {
				t.Fatalf("%s: NewPipeline has %d rows, the oracle %d", name, stream.Rel.Len(), want.Len())
			}
			ctx := &streamContext{}
			ctx.govern(context.Background(), db, Options{})
			if ctx.mayReduce(p) {
				swept++
				if stream.Stats.ReducedTuples > 0 {
					reduced++
				}
				continue
			}
			skipped++
			if _, err := runPushdown(ctx, p); err != nil {
				t.Fatal(err)
			}
			if ctx.stats.ReducedTuples != 0 {
				t.Fatalf("%s: the rule says skip, the sweeps removed %d tuples", name, ctx.stats.ReducedTuples)
			}
			bare, err := ExecIterator(p, db, Options{})
			if err != nil {
				t.Fatal(err)
			}
			stream.Stats.Elapsed, bare.Stats.Elapsed = 0, 0
			if fmt.Sprint(stream.Stats) != fmt.Sprint(bare.Stats) {
				t.Fatalf("%s: skipped, yet the run is not the bare pipeline's:\nstream   %+v\niterator %+v", name, stream.Stats, bare.Stats)
			}
		}
	}
	// The generator has to reach both answers, and sweeps that pay.
	if skipped < 100 || swept < 100 || reduced < 50 {
		t.Errorf("%d plans skipped, %d swept, %d of those reduced: the pool is lopsided", skipped, swept, reduced)
	}
}

// TestPushdownSkipRuleCases pins the rule's clauses one by one.
func TestPushdownSkipRuleCases(t *testing.T) {
	db := skipRuleDB(rand.New(rand.NewSource(1)))
	atom := func(rel string, args ...cq.Var) cq.Atom { return cq.Atom{Rel: rel, Args: args} }
	for _, tc := range []struct {
		name   string
		atoms  []cq.Atom
		reduce bool
	}{
		{"self-join", []cq.Atom{atom("d", 0, 1), atom("d", 1, 2)}, false},
		{"two dense relations over one range", []cq.Atom{atom("d", 0, 1), atom("d2", 1, 2)}, false},
		{"the same atom twice", []cq.Atom{atom("d", 0, 1), atom("d", 0, 1)}, false},
		{"two shared variables in the same columns", []cq.Atom{atom("t", 0, 1, 2), atom("t", 0, 1, 3)}, false},
		{"parallel atoms over two relations", []cq.Atom{atom("d", 0, 1), atom("d2", 0, 1)}, true},
		{"one relation read both ways", []cq.Atom{atom("d", 0, 1), atom("d", 1, 0)}, true},
		{"two shared variables in other columns", []cq.Atom{atom("t", 0, 1, 2), atom("t", 1, 0, 3)}, true},
		{"a shifted range", []cq.Atom{atom("d", 0, 1), atom("shifted", 1, 2)}, true},
		{"a sparse column", []cq.Atom{atom("d", 0, 1), atom("sparse", 1, 2)}, true},
		{"a column with a gap in the dense range", []cq.Atom{atom("d", 0, 1), atom("gappy", 1, 2)}, true},
		{"the dense column of that relation", []cq.Atom{atom("d", 0, 1), atom("gappy", 2, 1)}, false},
		{"an empty relation", []cq.Atom{atom("d", 0, 1), atom("empty", 1, 2)}, true},
		{"an empty relation against itself", []cq.Atom{atom("empty", 0, 1), atom("empty", 0, 2)}, false},
		{"an unknown relation", []cq.Atom{atom("d", 0, 1), atom("nowhere", 1, 2)}, true},
	} {
		var p plan.Node = &plan.Scan{Atom: tc.atoms[0]}
		for _, a := range tc.atoms[1:] {
			p = &plan.Join{Left: p, Right: &plan.Scan{Atom: a}}
		}
		ctx := &streamContext{}
		ctx.govern(context.Background(), db, Options{})
		if got := ctx.mayReduce(p); got != tc.reduce {
			t.Errorf("%s: mayReduce = %v, want %v", tc.name, got, tc.reduce)
		}
	}
}

// BenchmarkPushdownSkipRule is the price of deciding, on the largest
// stream-tier text of the through-the-wire benchmark (augmented circular
// ladder 40: 200 scans, 400 columns): the rule alone against the run it
// precedes.
func BenchmarkPushdownSkipRule(b *testing.B) {
	g := graph.AugmentedCircularLadder(40)
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		b.Fatal(err)
	}
	db := instance.ColorDatabase(3)
	p, err := core.BuildPlan(core.MethodStream, q, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("rule", func(b *testing.B) {
		ctx := &streamContext{}
		ctx.govern(context.Background(), db, Options{})
		for i := 0; i < b.N; i++ {
			if ctx.mayReduce(p) {
				b.Fatal("3-COLOR's edge relation cannot be reduced")
			}
		}
	})
	b.Run("run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ExecStreamContext(context.Background(), p, db, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
