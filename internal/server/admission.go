package server

import (
	"context"
	"fmt"
	"math"

	"projpush/internal/acyclic"
	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/jointree"
	"projpush/internal/plan"
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
// overrideAGM enables the worst-case-optimal override: a query whose only
// violation is the width threshold is admitted anyway
// (Verdict.AdmittedOnAGM) when its AGM output bound is within 2^wcojAGMLog2
// rows, because the caller will route it to the leapfrog multiway join,
// whose work is bounded by the output bound rather than the plan width.
// The override never excuses an AGM or predicted-bytes violation: those
// bound exactly what the multiway join produces and holds resident.
func assess(s *jointree.Structure, p plan.Node, method string, maxWidth int, maxAGMLog2 float64, maxPredicted int64, overrideAGM bool, db cq.Database) *Verdict {
	q := s.Query
	v := &Verdict{
		Method:            method,
		PlanWidth:         plan.Analyze(p).Width,
		MaxWidth:          maxWidth,
		MaxAGMLog2:        maxAGMLog2,
		MaxPredictedBytes: maxPredicted,
		Admitted:          true,
	}
	c := newCover(q, db)
	v.AGMLog2 = c.log2(nil)
	v.ElimWidth = s.Width
	v.BagAGMLog2 = bagAGMLog2(s, c, v.AGMLog2)
	v.PredictedPeakBytes = predictedPeakBytes(q, db)
	overWidth := maxWidth > 0 && v.PlanWidth > maxWidth
	overAGM := maxAGMLog2 > 0 && v.AGMLog2 > maxAGMLog2
	overPredicted := maxPredicted > 0 && v.PredictedPeakBytes > maxPredicted
	if overWidth || overAGM || overPredicted {
		v.Admitted = false
	}
	if overWidth && !overAGM && !overPredicted && overrideAGM && v.AGMLog2 <= wcojAGMLog2 {
		v.Admitted = true
		v.AdmittedOnAGM = true
	}
	return v
}

// bagAGMLog2 returns the largest agmLog2 over the bags of the query's tree
// decomposition (s.Dec) — the bound on the widest intermediate a
// join-tree plan over that decomposition can build — for the size-only
// routing rule to compare with whole, the full query's bound. It returns
// nil where the rule cannot apply, cheapest test first. Sizes alone: a
// bag of k variables is covered by at most k relations, so its bound is
// at most k·log2(max |R|); a whole above that for the widest bag (width+1
// variables) is above every bag, and a join graph of width under 2 is a
// forest, whose query is acyclic. Only past both are bags covered, and
// only those with enough variables to reach whole. Acyclicity: only when
// a bag does reach whole is GYO run, and an acyclic query is left to the
// full reducer, which builds no bag.
func bagAGMLog2(s *jointree.Structure, c *cover, whole float64) *float64 {
	perVar := 0.0 // log2(max |R|)
	for _, a := range c.atoms {
		perVar = math.Max(perVar, a.log)
	}
	if s.Width < 2 || whole > float64(s.Width+1)*perVar {
		return nil
	}
	widest := 0.0
	outside := make([]bool, len(c.index))
	for _, bag := range s.Dec.Bags {
		if whole > float64(len(bag))*perVar {
			continue
		}
		for i := range outside {
			outside[i] = true
		}
		for _, v := range s.Graph.VarSet(bag) {
			if i, ok := c.index[v]; ok {
				outside[i] = false
			}
		}
		widest = math.Max(widest, c.log2(outside))
	}
	if whole <= widest && acyclic.IsAcyclic(s.Query) {
		return nil
	}
	return &widest
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
func agmLog2(q *cq.Query, db cq.Database) float64 { return newCover(q, db).log2(nil) }

// cover is a query as the greedy edge cover sees it: its variables
// numbered densely and each atom with variables as a run of those numbers
// and the log2 of its relation's cardinality. It is built once per
// request and covered once for the whole query and once per bag.
type cover struct {
	index map[cq.Var]int
	vars  []int // the atoms' variables, one entry per argument
	atoms []coverAtom
	empty bool // an atom's relation is empty: the join is, every bound is 0
}

type coverAtom struct {
	lo, hi int // its variables are vars[lo:hi]
	log    float64
}

func newCover(q *cq.Query, db cq.Database) *cover {
	c := &cover{index: make(map[cq.Var]int), atoms: make([]coverAtom, 0, len(q.Atoms))}
	for _, a := range q.Atoms {
		if len(a.Args) == 0 {
			continue
		}
		lg := 0.0
		if rel := db[a.Rel]; rel != nil {
			switch n := rel.Len(); {
			case n == 0:
				c.empty = true
				return c
			case n > 1:
				lg = math.Log2(float64(n))
			}
		}
		lo := len(c.vars)
		for _, v := range a.Args {
			i, ok := c.index[v]
			if !ok {
				i = len(c.index)
				c.index[v] = i
			}
			c.vars = append(c.vars, i)
		}
		c.atoms = append(c.atoms, coverAtom{lo: lo, hi: len(c.vars), log: lg})
	}
	return c
}

// log2 covers the variables not yet marked in covered, which it consumes
// (nil = none marked: the whole query). Marking everything outside a bag
// bounds the join of the atoms projected onto the bag, each projection
// charged its relation's full cardinality.
func (c *cover) log2(covered []bool) float64 {
	if c.empty {
		return 0
	}
	if covered == nil {
		covered = make([]bool, len(c.index))
	}
	live := append([]coverAtom(nil), c.atoms...)
	var total float64
	for len(live) > 0 {
		best, bestNew := -1, 0
		// An atom with nothing left to cover never gains any: drop it
		// from every later round.
		kept := live[:0]
		for _, a := range live {
			n := 0
			for _, v := range c.vars[a.lo:a.hi] {
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
		for _, v := range c.vars[live[best].lo:live[best].hi] {
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
