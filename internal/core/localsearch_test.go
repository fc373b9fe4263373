package core

import (
	"math/rand"
	"testing"

	"projpush/internal/engine"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/jointree"
	"projpush/internal/plan"
	"projpush/internal/treedec"
)

func TestImproveOrderNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 15; trial++ {
		n := 6 + rng.Intn(8)
		m := n + rng.Intn(2*n)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g, err := graph.Random(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		if g.M() == 0 {
			continue
		}
		q := colorQuery(t, g)
		start := mustVarOrder(t, q, OrderMCS, rng)
		startW, err := InducedWidth(q, start)
		if err != nil {
			t.Fatal(err)
		}
		improved, w, err := ImproveOrder(q, start, 300, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Improved width (join-graph induced width + 1 ≈ plan width).
		planW, err := InducedWidth(q, improved)
		if err != nil {
			t.Fatalf("improved order invalid: %v", err)
		}
		if planW > startW {
			t.Fatalf("trial %d: local search worsened width %d -> %d", trial, startW, planW)
		}
		_ = w
		// Free variables stay in front.
		for i, v := range q.Free {
			if improved[i] != v {
				t.Fatalf("trial %d: free variable moved: %v", trial, improved[:len(q.Free)])
			}
		}
		// Still a permutation.
		seen := map[int]bool{}
		for _, v := range improved {
			if seen[v] {
				t.Fatalf("trial %d: duplicate in improved order", trial)
			}
			seen[v] = true
		}
	}
}

func TestImproveOrderReachesTreewidthOnSmallGraphs(t *testing.T) {
	// With a generous move budget the local search should usually reach
	// the true treewidth on small graphs; assert it never goes below
	// (impossible) and reaches it in a clear case where MCS is suboptimal.
	rng := rand.New(rand.NewSource(55))
	reached := 0
	trials := 0
	for trials < 10 {
		n := 7 + rng.Intn(4)
		m := n + rng.Intn(n)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g, err := graph.Random(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		if g.M() == 0 {
			continue
		}
		trials++
		q := colorQuery(t, g)
		q.Free = nil // Boolean: the join graph is exactly g
		jg := jointree.BuildJoinGraph(q)
		tw, _, err := treedec.Exact(jg.G)
		if err != nil {
			t.Fatal(err)
		}
		improved, _, err := ImproveOrder(q, mustVarOrder(t, q, OrderMCS, rng), 2000, rng)
		if err != nil {
			t.Fatal(err)
		}
		w, err := InducedWidth(q, improved)
		if err != nil {
			t.Fatal(err)
		}
		if w < tw+1 {
			t.Fatalf("width %d below treewidth+1 = %d: impossible", w, tw+1)
		}
		if w == tw+1 {
			reached++
		}
	}
	if reached < trials/2 {
		t.Fatalf("local search reached optimal width on only %d/%d small instances", reached, trials)
	}
}

func TestBucketEliminationImprovedAgreesWithOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	db := instance.ColorDatabase(3)
	g, err := graph.Random(9, 18, rng)
	if err != nil {
		t.Fatal(err)
	}
	q := colorQuery(t, g)
	p, err := BucketEliminationImproved(q, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(p, q); err != nil {
		t.Fatal(err)
	}
	res, err := engine.Exec(p, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.EvalOracle(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rel.Equal(want) {
		t.Fatal("improved-order plan disagrees with oracle")
	}
}

func TestImproveOrderRejectsBadStart(t *testing.T) {
	q := colorQuery(t, graph.Path(4))
	if _, _, err := ImproveOrder(q, mustVarOrder(t, q, OrderMCS, nil)[1:], 10, nil); err == nil {
		t.Fatal("accepted short order")
	}
}
