// Command loadgen drives a projpushd server with concurrent clients and
// reports the outcome mix and latency tail — the companion drill tool
// for the serving layer. Each client retries retryable outcomes (shed,
// timeout, internal, torn connections) with jittered backoff and counts
// terminal ones (over-width, parse, resource) as final.
//
//	loadgen -addr 127.0.0.1:7433 -clients 8 -requests 50 -family augpath -order 6
//	loadgen -addr 127.0.0.1:7433 -queryfile q.cq -clients 4
//
// -addr accepts a comma-separated list for multi-instance drills —
// clients spread round-robin over the endpoints (several independent
// servers, or several coordinator front ends of one fleet). Responses
// stamped with a fleet worker id are attributed per worker in the
// outcome mix, and coordinator failovers and hedge wins are summed.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"projpush/internal/cqparse"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/server"
	"projpush/internal/server/client"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7433", "projpushd address, or a comma-separated list to spread clients over several instances")
		clients   = flag.Int("clients", 4, "concurrent clients")
		requests  = flag.Int("requests", 25, "requests per client")
		method    = flag.String("method", "", "optimization method (empty = server default)")
		family    = flag.String("family", "augpath", "generated 3-COLOR family: augpath, ladder, augladder, cycle")
		order     = flag.Int("order", 6, "family order of the generated query")
		queryFile = flag.String("queryfile", "", "send this cqparse file verbatim instead of generating queries")
		cyclic    = flag.Float64("cyclic", 0, "fraction of requests drawn from dense cyclic 3-COLOR shapes (triangle, clique, wheel) — the worst-case-optimal route's workload; 0 disables")
		seed      = flag.Int64("seed", 1, "seed for client jitter and per-request family orders")
		retries   = flag.Int("retries", 4, "max retries per request")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request attempt timeout")
	)
	flag.Parse()

	queries, err := buildQueries(*queryFile, *family, *order)
	if err != nil {
		fatal(err)
	}
	var cyclicQueries []string
	if *cyclic > 0 {
		if cyclicQueries, err = buildCyclicQueries(*order); err != nil {
			fatal(err)
		}
	}

	addrs := strings.Split(*addr, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}

	type result struct {
		status  string
		worker  string
		latency time.Duration
	}
	results := make([][]result, *clients)
	var attempts int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	// inFlight tracks requests currently inside c.Query; peakInFlight is
	// its high-water mark — the concurrency the server actually saw, as
	// opposed to the -clients ceiling. aggBytes and aggPeakBytes sum the
	// server-reported per-request Bytes and PeakBytes over successful
	// answers: the total materialization the run cost the server.
	var inFlight, peakInFlight int64
	var aggBytes, aggPeakBytes int64
	var statsN int64
	// wcojRouted counts answers the server executed on the
	// worst-case-optimal route, agmAdmitted the subset that only got in
	// through the AGM-bound width override; aggSeeks/aggExtensions sum
	// the leapfrog work those answers reported.
	var wcojRouted, agmAdmitted int64
	var aggSeeks, aggExtensions int64
	// failovers sums the replicas coordinators gave up on before
	// answering; hedgeWins counts answers that came from a hedge request
	// that beat the first replica. Both are zero against plain servers.
	var failovers, hedgeWins int64
	start := time.Now()
	for ci := 0; ci < *clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := client.New(client.Options{
				Addr:           addrs[ci%len(addrs)],
				MaxRetries:     *retries,
				AttemptTimeout: *timeout,
				Seed:           *seed + int64(ci),
			})
			defer c.Close()
			rng := rand.New(rand.NewSource(*seed + int64(ci)*7919))
			for r := 0; r < *requests; r++ {
				q := queries[rng.Intn(len(queries))]
				if len(cyclicQueries) > 0 && rng.Float64() < *cyclic {
					q = cyclicQueries[rng.Intn(len(cyclicQueries))]
				}
				t0 := time.Now()
				now := atomic.AddInt64(&inFlight, 1)
				for {
					peak := atomic.LoadInt64(&peakInFlight)
					if now <= peak || atomic.CompareAndSwapInt64(&peakInFlight, peak, now) {
						break
					}
				}
				resp, err := c.Query(context.Background(), q, *method)
				atomic.AddInt64(&inFlight, -1)
				lat := time.Since(t0)
				if resp != nil && resp.Stats != nil {
					atomic.AddInt64(&aggBytes, resp.Stats.Bytes)
					atomic.AddInt64(&aggPeakBytes, resp.Stats.PeakBytes)
					atomic.AddInt64(&statsN, 1)
					atomic.AddInt64(&aggSeeks, resp.Stats.Seeks)
					atomic.AddInt64(&aggExtensions, resp.Stats.Extensions)
				}
				if resp != nil && resp.Verdict != nil && resp.Verdict.Method == "wcoj" {
					atomic.AddInt64(&wcojRouted, 1)
					if resp.Verdict.AdmittedOnAGM {
						atomic.AddInt64(&agmAdmitted, 1)
					}
				}
				status := "transport_error"
				worker := ""
				if resp != nil {
					status = string(resp.Status)
					worker = resp.Worker
					atomic.AddInt64(&failovers, int64(resp.Failovers))
					if resp.Hedged {
						atomic.AddInt64(&hedgeWins, 1)
					}
				} else if err == nil {
					status = string(server.StatusOK)
				}
				results[ci] = append(results[ci], result{status: status, worker: worker, latency: lat})
			}
			mu.Lock()
			attempts += c.Attempts()
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []result
	for _, rs := range results {
		all = append(all, rs...)
	}
	counts := make(map[string]int)
	perWorker := make(map[string]map[string]int)
	lats := make([]time.Duration, 0, len(all))
	for _, r := range all {
		counts[r.status]++
		lats = append(lats, r.latency)
		if r.worker != "" {
			m := perWorker[r.worker]
			if m == nil {
				m = make(map[string]int)
				perWorker[r.worker] = m
			}
			m[r.status]++
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return lats[i]
	}
	fmt.Printf("loadgen: %d requests (%d round trips incl. retries) in %v, %.1f req/s\n",
		len(all), attempts, elapsed.Round(time.Millisecond), float64(len(all))/elapsed.Seconds())
	statuses := make([]string, 0, len(counts))
	for s := range counts {
		statuses = append(statuses, s)
	}
	sort.Strings(statuses)
	for _, s := range statuses {
		fmt.Printf("  %-16s %d\n", s, counts[s])
	}
	if len(perWorker) > 0 {
		workers := make([]string, 0, len(perWorker))
		for w := range perWorker {
			workers = append(workers, w)
		}
		sort.Strings(workers)
		fmt.Println("per-worker outcome mix:")
		for _, w := range workers {
			wm := perWorker[w]
			ws := make([]string, 0, len(wm))
			for s := range wm {
				ws = append(ws, s)
			}
			sort.Strings(ws)
			parts := make([]string, 0, len(ws))
			total := 0
			for _, s := range ws {
				parts = append(parts, fmt.Sprintf("%s=%d", s, wm[s]))
				total += wm[s]
			}
			fmt.Printf("  %-16s %-5d %s\n", w, total, strings.Join(parts, " "))
		}
	}
	if failovers > 0 || hedgeWins > 0 {
		fmt.Printf("fleet: failovers=%d hedge-wins=%d\n", failovers, hedgeWins)
	}
	fmt.Printf("latency p50=%v p95=%v max=%v\n",
		q(0.50).Round(time.Microsecond), q(0.95).Round(time.Microsecond), q(1.0).Round(time.Microsecond))
	fmt.Printf("concurrency peak=%d in flight (of %d clients)\n", peakInFlight, *clients)
	fmt.Printf("server bytes: total=%d peak-live=%d across %d answered requests\n",
		aggBytes, aggPeakBytes, statsN)
	if wcojRouted > 0 || aggSeeks > 0 {
		fmt.Printf("wcoj route: %d answers (%d admitted on the AGM override), seeks=%d extensions=%d\n",
			wcojRouted, agmAdmitted, aggSeeks, aggExtensions)
	}
}

// buildQueries returns the request texts: the query file verbatim, or a
// few 3-COLOR instances of the family around the requested order (the
// server is expected to hold the k-COLOR edge database).
func buildQueries(path, family string, order int) ([]string, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return []string{string(data)}, nil
	}
	var queries []string
	for _, n := range []int{order, order + 1, order + 2} {
		var g *graph.Graph
		switch family {
		case "augpath":
			g = graph.AugmentedPath(n)
		case "ladder":
			g = graph.Ladder(n)
		case "augladder":
			g = graph.AugmentedLadder(n)
		case "cycle":
			g = graph.Cycle(n)
		default:
			return nil, fmt.Errorf("unknown family %q", family)
		}
		q, err := instance.ColorQuery(g, instance.BooleanFree(g))
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := cqparse.WriteQuery(&buf, q); err != nil {
			return nil, err
		}
		queries = append(queries, buf.String())
	}
	return queries, nil
}

// buildCyclicQueries returns dense cyclic 3-COLOR request texts — the
// triangle, a clique at the requested order (capped so the answer bound
// stays sane), and a wheel — the shapes whose plan widths blow past
// any admission cap while the AGM bound stays small, so a server with
// the override on routes them to the worst-case-optimal executor.
func buildCyclicQueries(order int) ([]string, error) {
	k := order
	if k > 6 {
		k = 6
	}
	if k < 4 {
		k = 4
	}
	w := order
	if w < 5 {
		w = 5
	}
	var queries []string
	for _, g := range []*graph.Graph{graph.Cycle(3), graph.Complete(k), graph.Wheel(w)} {
		q, err := instance.ColorQuery(g, instance.BooleanFree(g))
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := cqparse.WriteQuery(&buf, q); err != nil {
			return nil, err
		}
		queries = append(queries, buf.String())
	}
	return queries, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
