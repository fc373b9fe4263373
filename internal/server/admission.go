package server

import (
	"context"
	"fmt"
	"math"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/plan"
	"projpush/internal/treedec"
)

// Width-aware admission control. The paper's theory gives the server a
// static blow-up predictor no cost-based system has: a plan's width (its
// maximum intermediate arity) is known before execution, Theorems 1–2
// bound the best achievable width by treewidth+1, and the AGM inequality
// bounds the join's output size from the relation cardinalities alone.
// Admission therefore rejects hopeless queries for the price of plan
// construction — never a materialized intermediate — instead of
// admitting everything and aborting mid-explosion.

// assess computes the admission verdict for a planned query: the chosen
// plan's width, the join graph's MCS elimination width, the AGM output
// bound, and the predicted peak live bytes of a streaming run, checked
// against the server's thresholds.
//
// wcojAGM, when positive, enables the worst-case-optimal override: a
// query whose only violation is the width threshold is admitted anyway
// (Verdict.AdmittedOnAGM) when its AGM output bound is within 2^wcojAGM
// rows, because the caller will route it to the leapfrog multiway join,
// whose work is bounded by the output bound rather than the plan width.
// The override never excuses an AGM or predicted-bytes violation: those
// bound exactly what the multiway join produces and holds resident.
//
// spillBytes ≥ 0 enables the spill override: a query whose only
// violation is the predicted-bytes threshold is admitted anyway
// (Verdict.AdmittedOnSpill) when spilling is armed and the prediction
// fits the disk budget (spillBytes, 0 = unlimited disk), because the
// executors will degrade the overage to disk latency instead of dying
// with ErrMemLimit. Pass spillBytes < 0 when spilling is disabled. The
// override never excuses a width or AGM violation: spill bounds
// residency, not the work or output size those predict.
func assess(q *cq.Query, p plan.Node, method string, maxWidth int, maxAGMLog2 float64, maxPredicted int64, wcojAGM float64, spillBytes int64, db cq.Database) *Verdict {
	v := &Verdict{
		Method:            method,
		PlanWidth:         plan.Analyze(p).Width,
		MaxWidth:          maxWidth,
		MaxAGMLog2:        maxAGMLog2,
		MaxPredictedBytes: maxPredicted,
		WCOJAGMLog2:       wcojAGM,
		Admitted:          true,
	}
	if jg, elim, err := core.EliminationOrder(q, core.OrderMCS, nil); err == nil {
		v.ElimWidth = treedec.InducedWidth(jg.G, elim)
	}
	v.AGMLog2 = agmLog2(q, db)
	v.PredictedPeakBytes = predictedPeakBytes(q, db)
	overWidth := maxWidth > 0 && v.PlanWidth > maxWidth
	overAGM := maxAGMLog2 > 0 && v.AGMLog2 > maxAGMLog2
	overPredicted := maxPredicted > 0 && v.PredictedPeakBytes > maxPredicted
	if overWidth || overAGM || overPredicted {
		v.Admitted = false
	}
	if overWidth && !overAGM && !overPredicted && wcojAGM > 0 && v.AGMLog2 <= wcojAGM {
		v.Admitted = true
		v.AdmittedOnAGM = true
	}
	if overPredicted && !overWidth && !overAGM && spillBytes >= 0 &&
		(spillBytes == 0 || v.PredictedPeakBytes <= spillBytes) {
		v.Admitted = true
		v.AdmittedOnSpill = true
	}
	return v
}

// predictedPeakBytes bounds a streaming run's peak live bytes from the
// catalog alone: each pipeline breaker (hash build, DISTINCT state)
// stores at most the needed columns of one pre-reduced base input, so
// peak residency never exceeds the referenced relations' combined
// footprint. Materializing executors can exceed this arbitrarily — their
// intermediates are bounded by the AGM term, not the inputs — which is
// exactly why byte-budget admission reasons about the streaming peak.
func predictedPeakBytes(q *cq.Query, db cq.Database) int64 {
	var total int64
	for _, a := range q.Atoms {
		if rel := db[a.Rel]; rel != nil {
			total += rel.Bytes()
		}
	}
	return total
}

// agmLog2 returns log2 of an AGM-style bound on the full join's output
// cardinality: a greedy integral edge cover of the query's variables by
// its atoms, charging log2 of each chosen relation's cardinality. The
// integral cover relaxes the AGM fractional cover, so the bound is valid
// (an upper bound on the fractional optimum) and needs no LP solver. An
// empty relation anywhere in the cover proves the answer empty (bound 0).
//
// Each round picks the atom covering the most uncovered variables, the
// smaller relation on ties, the earlier atom on further ties. The value
// drives routing, so the pick order and the order of the additions are
// part of the contract (TestAGMLog2MatchesReference).
func agmLog2(q *cq.Query, db cq.Database) float64 {
	type coverAtom struct {
		lo, hi int // its variables are vars[lo:hi], one entry per argument
		log    float64
	}
	index := make(map[cq.Var]int)
	var vars []int
	live := make([]coverAtom, 0, len(q.Atoms))
	for _, a := range q.Atoms {
		if len(a.Args) == 0 {
			continue
		}
		lg := 0.0
		if rel := db[a.Rel]; rel != nil {
			switch n := rel.Len(); {
			case n == 0:
				// An empty relation covering a variable makes the whole
				// join empty.
				return 0
			case n > 1:
				lg = math.Log2(float64(n))
			}
		}
		lo := len(vars)
		for _, v := range a.Args {
			i, ok := index[v]
			if !ok {
				i = len(index)
				index[v] = i
			}
			vars = append(vars, i)
		}
		live = append(live, coverAtom{lo: lo, hi: len(vars), log: lg})
	}
	covered := make([]bool, len(index))
	var total float64
	for len(live) > 0 {
		best, bestNew := -1, 0
		// An atom with nothing left to cover never gains any: drop it
		// from every later round.
		kept := live[:0]
		for _, a := range live {
			n := 0
			for _, v := range vars[a.lo:a.hi] {
				if !covered[v] {
					n++
				}
			}
			if n == 0 {
				continue
			}
			if best < 0 || n > bestNew || (n == bestNew && a.log < kept[best].log) {
				best, bestNew = len(kept), n
			}
			kept = append(kept, a)
		}
		live = kept
		if best < 0 {
			break
		}
		for _, v := range vars[live[best].lo:live[best].hi] {
			covered[v] = true
		}
		total += live[best].log
	}
	return total
}

// limiter is the concurrency gate in front of the executors: a semaphore
// of execution slots plus a bounded wait queue. A request that finds all
// slots busy and the queue full — or that waits out its queue budget —
// is shed immediately with engine.ErrOverloaded, so overload produces
// fast typed rejections instead of unbounded queueing and hangs.
type limiter struct {
	slots chan struct{}
	queue chan struct{}
}

func newLimiter(maxConcurrent, maxQueue int) *limiter {
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &limiter{
		slots: make(chan struct{}, maxConcurrent),
		queue: make(chan struct{}, maxQueue),
	}
}

// acquire takes an execution slot, queueing at most until ctx is done.
// It never blocks past the queue bound: the overflow request is shed.
func (l *limiter) acquire(ctx context.Context) error {
	select {
	case l.slots <- struct{}{}:
		return nil
	default:
	}
	select {
	case l.queue <- struct{}{}:
	default:
		return fmt.Errorf("%w: %d executing, wait queue full", engine.ErrOverloaded, cap(l.slots))
	}
	defer func() { <-l.queue }()
	select {
	case l.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%w: queue wait expired", engine.ErrOverloaded)
	}
}

func (l *limiter) release() { <-l.slots }
