package server

import (
	"context"
	"fmt"
	"math"
	"slices"

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
	sizeRule(v, s, c)
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

// sizeArm is an arm of the size-only routing rule (sizeRule).
type sizeArm uint8

const (
	noArm       sizeArm = iota
	noGainArm           // route reason no_gain_from_decomposition
	freeVarsArm         // route reason free_vars_under_bag
)

// sizeRule applies the size-only routing rule (route) to the query,
// from its MCS tree decomposition (s.Dec) and stored sizes alone, and
// records in v the arm it meets with the bounds that decided it. An
// acyclic query meets none: the full reducer answers it output-optimally.
// A bag of k variables is covered by at most k relations, so its bound is
// at most k·log2(max |R|): each walk skips the bags that cannot reach its
// mark.
//
// no_gain: the full query's bound is within the widest bag's, which every
// join-tree plan over the decomposition still builds.
//
// free_vars_under_bag: some bag's variables outside the head are bounded
// above the free variables alone. The decomposition materializes more
// existential assignments there than leapfrog enumerates free ones, each
// of which stops at a first witness. Where none is — the free variables
// span the widest bag — leapfrog would redo its existential search for
// more free assignments than any bag holds. On this arm v also gets the
// sum of every bag's bound, the work budget the route runs leapfrog under.
func sizeRule(v *Verdict, s *jointree.Structure, c *cover) {
	if s.Width < 2 || jointree.IsAcyclic(s.Query) {
		return // a join graph of width under 2 is a forest
	}
	perVar := 0.0 // log2(max |R|)
	for _, a := range c.atoms {
		perVar = math.Max(perVar, a.log)
	}
	head := make([]bool, len(c.index))
	free := make([]int, 0, len(s.Query.Free)) // not nil: nil is every variable
	for _, x := range s.Query.Free {
		head[c.index[x]] = true
		free = append(free, c.index[x])
	}
	// vars returns bag b's variables, only those outside the head when
	// exist is set.
	index := make([]int, len(s.Graph.Vars)) // join-graph vertex -> cover variable
	for x, v := range s.Graph.Vars {
		index[x] = c.index[v]
	}
	scratch := make([]int, 0, s.Width+1)
	vars := func(b []int, exist bool) []int {
		scratch = scratch[:0]
		for _, x := range b {
			if i := index[x]; !exist || !head[i] {
				scratch = append(scratch, i)
			}
		}
		return scratch
	}
	if whole := v.AGMLog2; whole <= float64(s.Width+1)*perVar {
		widest, walked := 0.0, false
		for _, b := range s.Dec.Bags {
			if float64(len(b))*perVar >= whole {
				widest, walked = math.Max(widest, c.log2(vars(b, false))), true
			}
		}
		if walked && whole <= widest {
			v.arm, v.BagAGMLog2 = noGainArm, &widest
			return
		}
	}
	f := c.log2(free)
	v.FreeAGMLog2 = &f
	for _, b := range s.Dec.Bags {
		if ex := vars(b, true); float64(len(ex))*perVar > f {
			if w := c.log2(ex); w > f {
				sum := 0.0
				for _, b := range s.Dec.Bags {
					sum += math.Exp2(c.log2(vars(b, false)))
				}
				plan := math.Log2(sum)
				v.arm, v.BagAGMLog2, v.PlanAGMLog2 = freeVarsArm, &w, &plan
				return
			}
		}
	}
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

	// want and seen are log2's per-call marks: want[x] == round while
	// variable x is still to cover, seen[a] == round once atom a is a
	// candidate. on[at[x]:at[x+1]] lists the atoms with variable x, in
	// atom order.
	want, seen, cand, on, at []int
	round                    int
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
	c.want, c.seen = make([]int, len(c.index)), make([]int, len(c.atoms))
	return c
}

// log2 greedily covers the variables vs (indexes; nil is every variable,
// the whole query): it bounds the join of the atoms projected onto vs, each
// projection charged its relation's full cardinality. Only atoms with a
// variable in vs can cover one, so a bag's cover walks those alone (on),
// in atom order, as the whole query's walks every atom.
func (c *cover) log2(vs []int) float64 {
	if c.empty {
		return 0
	}
	if vs != nil && c.on == nil {
		c.at = make([]int, len(c.index)+1)
		for _, x := range c.vars {
			c.at[x+1]++
		}
		for x := range len(c.index) {
			c.at[x+1] += c.at[x]
		}
		c.on = make([]int, len(c.vars))
		next := slices.Clone(c.at)
		for a, at := range c.atoms {
			for _, x := range c.vars[at.lo:at.hi] {
				c.on[next[x]], next[x] = a, next[x]+1
			}
		}
	}
	c.round++
	live := c.cand[:0]
	if vs == nil {
		for x := range c.want {
			c.want[x] = c.round
		}
		for a := range c.atoms {
			live = append(live, a)
		}
	} else {
		for _, x := range vs {
			c.want[x] = c.round
			for _, a := range c.on[c.at[x]:c.at[x+1]] {
				if c.seen[a] != c.round {
					c.seen[a] = c.round
					live = append(live, a)
				}
			}
		}
		slices.Sort(live)
	}
	c.cand = live
	var total float64
	for len(live) > 0 {
		best, bestNew := -1, 0
		// An atom with nothing left to cover never gains any: drop it
		// from every later round.
		kept := live[:0]
		for _, a := range live {
			n := 0
			for _, x := range c.vars[c.atoms[a].lo:c.atoms[a].hi] {
				if c.want[x] == c.round {
					n++
				}
			}
			if n == 0 {
				continue
			}
			if best < 0 || n > bestNew || (n == bestNew && c.atoms[a].log < c.atoms[kept[best]].log) {
				best, bestNew = len(kept), n
			}
			kept = append(kept, a)
		}
		live = kept
		if best < 0 {
			break
		}
		for _, x := range c.vars[c.atoms[live[best]].lo:c.atoms[live[best]].hi] {
			c.want[x] = 0
		}
		total += c.atoms[live[best]].log
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
