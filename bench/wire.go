package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/cqparse"
	"projpush/internal/engine"
	"projpush/internal/relation"
	"projpush/internal/server"
	"projpush/internal/server/client"
	"projpush/internal/stats"
)

// reference is a query's expected answer: its cardinality and an
// order-independent hash of its tuples.
type reference struct {
	rows int
	hash uint64
}

// answerHash sums a per-tuple hash over the answer, with each tuple's
// columns taken in ascending attribute order so two executors that emit
// the same relation under different column orders agree.
func answerHash(attrs []int, n int, value func(row, col int) int32) uint64 {
	cols := make([]int, len(attrs))
	for i := range cols {
		cols[i] = i
	}
	sort.Slice(cols, func(a, b int) bool { return attrs[cols[a]] < attrs[cols[b]] })
	var sum uint64
	for r := 0; r < n; r++ {
		h := uint64(14695981039346656037)
		for _, c := range cols {
			h = (h ^ uint64(uint32(value(r, c)))) * 1099511628211
		}
		h ^= h >> 29 // FNV's low bits are weak; fold before summing
		sum += h * 0x9e3779b97f4a7c15
	}
	return sum
}

func referenceOf(rel *relation.Relation) reference {
	tuples := rel.Tuples()
	return reference{
		rows: rel.Len(),
		hash: answerHash(rel.Attrs(), rel.Len(), func(r, c int) int32 { return tuples[r][c] }),
	}
}

// matches reports whether a wire answer is the reference answer.
func (ref reference) matches(a *server.Answer) bool {
	if a == nil || a.Rows != ref.rows || len(a.Tuples) != ref.rows || a.Nonempty != (ref.rows > 0) {
		return false
	}
	return answerHash(a.Attrs, len(a.Tuples), func(r, c int) int32 { return a.Tuples[r][c] }) == ref.hash
}

// oracleBudget caps the assignments engine.EvalOracle may enumerate.
// The oracle cannot be cancelled, so "where it finishes in 2 s" is
// decided statically: the product of the variables' candidate domain
// sizes bounds its search tree.
const oracleBudget = 5e6

// oracleFeasible reports whether the backtracking oracle's search space
// for q is within oracleBudget. distinct caches each relation's
// per-column distinct-value counts.
func oracleFeasible(q *cq.Query, db cq.Database, distinct map[string][]int) bool {
	dom := make(map[cq.Var]int)
	for _, a := range q.Atoms {
		d, ok := distinct[a.Rel]
		if !ok {
			rel := db[a.Rel]
			d = make([]int, rel.Arity())
			for col := range d {
				seen := make(map[relation.Value]struct{})
				for _, t := range rel.Tuples() {
					seen[t[col]] = struct{}{}
				}
				d[col] = len(seen)
			}
			distinct[a.Rel] = d
		}
		for col, v := range a.Args {
			if cur, ok := dom[v]; !ok || d[col] < cur {
				dom[v] = d[col]
			}
		}
	}
	space := 1.0
	for _, n := range dom {
		space *= float64(n)
	}
	return space <= oracleBudget
}

// references computes every pool query's expected answer in process:
// the backtracking oracle where its search space is small, otherwise
// bucket elimination through the materializing executor. Neither is a
// route the server's cascade prefers, so a wrong answer from the
// yannakakis, stream or wcoj executors cannot vouch for itself.
func references(db cq.Database, pool []query) ([]reference, error) {
	refs := make([]reference, len(pool))
	distinct := make(map[string][]int)
	for i, pq := range pool {
		file, err := cqparse.ParseWith(strings.NewReader(pq.Text), db)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", pq.Name, err)
		}
		if oracleFeasible(file.Query, file.DB, distinct) {
			rel, err := engine.EvalOracle(file.Query, file.DB)
			if err != nil {
				return nil, fmt.Errorf("bench: %s: oracle: %w", pq.Name, err)
			}
			refs[i] = referenceOf(rel)
			continue
		}
		p, err := core.BuildPlan(core.MethodBucketElimination, file.Query, nil)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: plan: %w", pq.Name, err)
		}
		res, err := engine.Exec(p, file.DB, engine.Options{Timeout: time.Minute})
		if err != nil {
			return nil, fmt.Errorf("bench: %s: reference execution: %w", pq.Name, err)
		}
		refs[i] = referenceOf(res.Rel)
	}
	return refs, nil
}

// queryAgg is what the wire run saw of one distinct query.
type queryAgg struct {
	count   int
	latency time.Duration
	// first is the first verified-ok response: its verdict names the
	// route the traced run replays, and its frame size is the query's
	// response size.
	first   *server.Response
	workers map[string]struct{}
}

// wireRun aggregates one phase of closed-loop traffic.
type wireRun struct {
	attempted int
	failed    int
	elapsed   time.Duration
	latencies []time.Duration // verified-ok answers only
	perQuery  []queryAgg
	failures  []string // the first few failure descriptions

	// sums over verified-ok answers
	peakBytes, tuples, bytes, materialized, reduced, seeks, extensions, execUS int64
	maxArity                                                                   int
	routes                                                                     map[string]int
	workers                                                                    map[string]int
	failovers, hedged                                                          int
	// statuses that count as failed but are reported on their own
	shed, degraded, overWidth int

	serverCPU, clientCPU time.Duration
	serverHWMMB          float64
	// hostRatio is the host probe's ratio over the phase (see host.go).
	hostRatio float64
}

func newWireRun(pool int) *wireRun {
	return &wireRun{perQuery: make([]queryAgg, pool), routes: map[string]int{}, workers: map[string]int{}, hostRatio: quietRatio}
}

// failure describes why a response does not count as a verified `ok`,
// or returns "" when it does. Anything but `ok` is a failure: degraded,
// shed and timeout answers are typed, not healthy.
func failure(ref reference, resp *server.Response, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case resp.Status != server.StatusOK:
		return "status " + string(resp.Status)
	case !ref.matches(resp.Answer) || resp.Stats == nil || resp.Verdict == nil:
		return fmt.Sprintf("answer differs from the reference (%d rows expected)", ref.rows)
	}
	return ""
}

// record adds one classified response to the run.
func (r *wireRun) record(q int, name, failure string, resp *server.Response, lat time.Duration) {
	r.attempted++
	if resp != nil {
		switch resp.Status {
		case server.StatusShed:
			r.shed++
		case server.StatusDegraded:
			r.degraded++
		case server.StatusOverWidth:
			r.overWidth++
		}
	}
	if failure != "" {
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, name+": "+failure)
		}
		return
	}
	r.latencies = append(r.latencies, lat)
	agg := &r.perQuery[q]
	agg.count++
	agg.latency += lat
	if agg.first == nil {
		agg.first = resp
	}
	st := resp.Stats
	r.peakBytes += st.PeakBytes
	r.tuples += st.Tuples
	r.bytes += st.Bytes
	r.materialized += st.Materialized
	r.reduced += st.Reduced
	r.seeks += st.Seeks
	r.extensions += st.Extensions
	r.execUS += st.ElapsedUS
	r.maxArity = max(r.maxArity, st.MaxArity)
	r.routes[resp.Verdict.Method]++
	r.failovers += resp.Failovers
	if resp.Hedged {
		r.hedged++
	}
	if resp.Worker != "" {
		r.workers[resp.Worker]++
		if agg.workers == nil {
			agg.workers = map[string]struct{}{}
		}
		agg.workers[resp.Worker] = struct{}{}
	}
}

// ok is the number of verified-ok answers.
func (r *wireRun) ok() int { return len(r.latencies) }

// latenciesMS is the round trips of the verified-ok answers, in ms.
func (r *wireRun) latenciesMS() []float64 {
	ms := make([]float64, len(r.latencies))
	for i, l := range r.latencies {
		ms[i] = float64(l) / float64(time.Millisecond)
	}
	return ms
}

// meanLatencyUS is the mean round trip of the verified-ok answers.
func (r *wireRun) meanLatencyUS() float64 { return 1e3 * stats.Mean(r.latenciesMS()) }

// responseBytes is a query's response frame size with the one
// wall-clock field zeroed, so the count repeats exactly.
func responseBytes(resp *server.Response) int {
	st := *resp.Stats
	st.ElapsedUS = 0
	cp := *resp
	cp.Stats = &st
	payload, err := json.Marshal(&cp)
	if err != nil {
		return 0
	}
	return 4 + len(payload)
}

// source yields a client's next pool index, or false when its share of
// the phase is done.
type source func() (int, bool)

// counted yields the sampler's next n requests.
func counted(s *sampler, n int) source {
	return func() (int, bool) {
		if n == 0 {
			return 0, false
		}
		n--
		return s.next(), true
	}
}

// timed yields the sampler's requests until the deadline.
func timed(s *sampler, deadline time.Time) source {
	return func() (int, bool) {
		if !time.Now().Before(deadline) {
			return 0, false
		}
		return s.next(), true
	}
}

// listed yields seq in order, until the deadline if one is set.
func listed(seq []int, deadline time.Time) source {
	return func() (int, bool) {
		if len(seq) == 0 || (!deadline.IsZero() && !time.Now().Before(deadline)) {
			return 0, false
		}
		q := seq[0]
		seq = seq[1:]
		return q, true
	}
}

// drive runs one closed-loop phase: one client per source, one request
// in flight per client, no retries (a failure is counted, not hidden),
// a fresh connection per request as the repo's client does today.
func drive(ctx context.Context, addr string, w *workload, refs []reference, sources []source) *wireRun {
	run := newWireRun(len(w.Pool))
	var mu sync.Mutex // guards run; held only to record, never across a request
	var wg sync.WaitGroup
	start := time.Now()
	for _, src := range sources {
		wg.Add(1)
		go func(src source) {
			defer wg.Done()
			c := client.New(client.Options{Addr: addr, MaxRetries: -1})
			for ctx.Err() == nil {
				q, ok := src()
				if !ok {
					return
				}
				t0 := time.Now()
				resp, err := c.Query(ctx, w.Pool[q].Text, "")
				lat := time.Since(t0)
				why := failure(refs[q], resp, err)
				mu.Lock()
				run.record(q, w.Pool[q].Name, why, resp, lat)
				mu.Unlock()
			}
		}(src)
	}
	wg.Wait()
	run.elapsed = time.Since(start)
	return run
}

// readyRTT is the mean round trip of the `ready` op on an idle server:
// dial, two frames and dispatch — the floor under every request.
func readyRTT(ctx context.Context, addr string, n int) (float64, error) {
	c := client.New(client.Options{Addr: addr, MaxRetries: -1})
	start := time.Now()
	for i := 0; i < n; i++ {
		if ok, err := c.Ready(ctx); err != nil || !ok {
			return 0, fmt.Errorf("bench: ready probe: ok=%v err=%v", ok, err)
		}
	}
	return float64(time.Since(start).Microseconds()) / float64(n), nil
}
