// Command bench is the repository's benchmark: it measures what a
// client of projpushd waits for, through the wire, and attributes the
// time to the repo's layers with a traced in-process replay.
//
//	go run -C bench .                       every workload, frozen request counts, wire run + traced run
//	go run -C bench . -quick                the same in under 15 s (benchmark-rot smoke)
//	go run -C bench . -check a.json b.json  compare two results against the bounds
//	go run -C bench . -workload W -seed N -seconds S -trace 0|1
//	                                        one workload for S seconds; the last stdout line is one
//	                                        JSON object (the BENCHMARK.json contract)
//
// It builds cmd/projpushd from the checkout, generates the database and
// the request sequences from -seed alone, runs the server as a child
// process over loopback, drives it closed-loop with the repo's own
// client, and checks every answer against an in-process reference.
// See README.md for the metrics, workloads and how to compare runs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"projpush/internal/cq"
	"projpush/internal/cqparse"
)

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload and end with the contract's one-line JSON result")
		seed    = flag.Int64("seed", 1, "the only input to database and request generation")
		seconds = flag.Float64("seconds", 0, "measure for this long instead of for the frozen request counts (required with -workload)")
		trace   = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		quick   = flag.Bool("quick", false, "about 200 requests per workload: a smoke run, not a measurement")
		doCheck = flag.Bool("check", false, "compare two result files: -check a.json b.json")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *doCheck {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -check a.json b.json"))
		}
		violations, err := check(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if violations > 0 {
			fatal(fmt.Errorf("%d violations", violations))
		}
		return
	}

	h, err := newHarness(ctx, *seed)
	if err != nil {
		fatal(err)
	}
	if *name != "" {
		if *seconds <= 0 {
			fatal(fmt.Errorf("-workload needs -seconds"))
		}
		if err := h.contractRun(ctx, os.Stdout, *name, *seconds, *trace == 1); err != nil {
			fatal(err)
		}
		return
	}
	if err := h.fullRun(ctx, *quick, *seconds); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// harness is the state every workload shares: the built server, the
// generated database on disk and in memory, and the workloads.
type harness struct {
	root, out string
	bin       string
	dbPath    string
	db        cq.Database
	seed      int64
	workloads []workload
	times     map[string]float64 // harness.build_s, harness.gen_s
}

func newHarness(ctx context.Context, seed int64) (*harness, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	h := &harness{root: root, out: filepath.Join(root, "bench", "out"), seed: seed, times: map[string]float64{}}
	if err := os.MkdirAll(h.out, 0o755); err != nil {
		return nil, err
	}

	t0 := time.Now()
	if h.bin, err = buildServer(ctx, root); err != nil {
		return nil, err
	}
	h.times["harness.build_s"] = time.Since(t0).Seconds()

	t0 = time.Now()
	h.dbPath = filepath.Join(h.out, fmt.Sprintf("db-seed%d.cq", seed))
	f, err := os.Create(h.dbPath)
	if err != nil {
		return nil, err
	}
	if err := writeDB(f, generateDB(seed)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	// Load the file back the way projpushd does, so references and the
	// replay run over exactly what the server serves.
	in, err := os.Open(h.dbPath)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	parsed, err := cqparse.Parse(in)
	if err != nil {
		return nil, err
	}
	h.db = parsed.DB
	h.workloads = generateWorkloads()
	h.times["harness.gen_s"] = time.Since(t0).Seconds()
	return h, nil
}

// runPlan says how much of a workload to run.
type runPlan struct {
	endToEnd, traced bool
	// setups is how many times set-up (spawn, ready, warm-up) is
	// measured; its median is setup_s.
	setups int
	warmup int
	// count is the timed window's request count; with seconds > 0 the
	// window, and the traced run's phases, are bounded by time instead.
	count, replayed int
	seconds         float64
	// baseline is the single-server mean loaded latency cluster.hop_us
	// subtracts; 0 makes a fleet workload measure it itself.
	baselineUS float64
}

// loadedSources returns the client sources of a loaded phase.
func loadedSources(samplers []*sampler, count int, d time.Duration) []source {
	sources := make([]source, clients)
	deadline := time.Now().Add(d)
	for c := range sources {
		if d > 0 {
			sources[c] = timed(samplers[c], deadline)
		} else {
			sources[c] = counted(samplers[c], count/clients)
		}
	}
	return sources
}

// warm starts a server and sends it the warm-up requests: the set-up a
// client waits for before its first timed request.
func (h *harness) warm(ctx context.Context, w *workload, fleet int, refs []reference, samplers []*sampler, warmup int) (*child, error) {
	c, err := startChild(ctx, h.bin, h.dbPath, fleet)
	if err != nil {
		return nil, err
	}
	run := drive(ctx, c.addr, w, refs, loadedSources(samplers, warmup, 0))
	if run.failed > 0 {
		c.stop()
		return nil, fmt.Errorf("bench: %s: warm-up failed: %s", w.Name, strings.Join(run.failures, "; "))
	}
	return c, nil
}

func (h *harness) samplers(w *workload) []*sampler {
	s := make([]*sampler, clients)
	for c := range s {
		s[c] = w.sampler(h.seed, c)
	}
	return s
}

// runWorkload measures one workload as p says.
func (h *harness) runWorkload(ctx context.Context, w *workload, p runPlan) (res *workloadResult, err error) {
	res = &workloadResult{Name: w.Name, Why: w.Why, Warmup: p.warmup, PhaseS: map[string]float64{}}
	phase := func(name string, t0 time.Time) { res.PhaseS[name] += time.Since(t0).Seconds() }
	window := time.Duration(p.seconds * float64(time.Second))

	t0 := time.Now()
	refs, err := references(h.db, w.Pool)
	if err != nil {
		return nil, err
	}
	phase("reference", t0)

	// The host probe runs beside the set-ups and the timed window, whose
	// timings are brought to a quiet host with its ratio.
	probe := startHostProbe()
	defer probe.close()

	// Set-up, measured p.setups times; the last server stays up for the
	// timed window.
	var c *child
	var samplers []*sampler
	var setups []float64
	t0 = time.Now()
	for i := 0; i < p.setups; i++ {
		if c != nil {
			if err := c.stop(); err != nil {
				return nil, err
			}
		}
		samplers = h.samplers(w)
		s0 := time.Now()
		if c, err = h.warm(ctx, w, w.Fleet, refs, samplers, p.warmup); err != nil {
			return nil, err
		}
		s1 := time.Now()
		setups = append(setups, s1.Sub(s0).Seconds()/slowdown(probe.ratio(s0, s1)))
	}
	phase("setup", t0)
	res.ServerArgv = c.argv
	// Every path below leaves through here, so the child is always
	// stopped and reaped, and an unclean drain fails the run.
	defer func() {
		if serr := c.stop(); serr != nil && err == nil {
			res, err = nil, serr
		}
	}()

	// The loaded wire run: the end-to-end numbers, and the routes,
	// verdicts and counts the layer view needs. In a timed traced run it
	// gets 45 % of the time (30 % on a fleet, which also measures its
	// single-server baseline).
	loaded := window
	if p.traced && !p.endToEnd {
		loaded = window * 45 / 100
		if w.Fleet > 0 && p.baselineUS == 0 {
			loaded = window * 30 / 100
		}
	}
	t0 = time.Now()
	before, perr := readProc(c.cmd.Process.Pid)
	cpu0 := selfCPU()
	run := drive(ctx, c.addr, w, refs, loadedSources(samplers, p.count, loaded))
	run.clientCPU = selfCPU() - cpu0
	run.hostRatio = probe.ratio(t0, time.Now())
	probe.close() // the phases below time single calls: leave them the cores
	if after, err := readProc(c.cmd.Process.Pid); err == nil && perr == nil {
		run.serverCPU = after.cpu - before.cpu
		run.serverHWMMB = after.hwmMB
	}
	phase("wire", t0)
	res.Requests, res.Samples, res.Failed, res.Failures = run.attempted, run.ok(), run.failed, run.failures
	res.HostRatio = run.hostRatio
	res.meanLatencyUS = run.meanLatencyUS()
	res.Queries = queryRows(w, run, refs)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if p.endToEnd {
		res.EndToEnd = endToEndMetrics(run, setups)
	}
	if !p.traced || run.failed > 0 {
		return res, nil
	}

	// The traced run. First the two wire numbers it is compared with,
	// from the now idle server: the ready round trip, and the replayed
	// requests sent by one client.
	in := layerInputs{singleUS: p.baselineUS}
	seq := replaySequence(w, h.seed, p.replayed)
	t0 = time.Now()
	if in.rttUS, err = readyRTT(ctx, c.addr, 200); err != nil {
		return nil, err
	}
	var deadline time.Time
	if window > 0 {
		deadline = time.Now().Add(window * 20 / 100)
	}
	unloaded := drive(ctx, c.addr, w, refs, []source{listed(seq, deadline)})
	if unloaded.failed > 0 {
		return nil, fmt.Errorf("bench: %s: unloaded run failed: %s", w.Name, strings.Join(unloaded.failures, "; "))
	}
	phase("unloaded", t0)

	if w.Fleet > 0 && in.singleUS == 0 {
		t0 = time.Now()
		single, err := h.warm(ctx, w, 0, refs, h.samplers(w), p.warmup)
		if err != nil {
			return nil, err
		}
		base := drive(ctx, single.addr, w, refs, loadedSources(h.samplers(w), p.count, window*15/100))
		if err := single.stop(); err != nil {
			return nil, err
		}
		if base.failed > 0 {
			return nil, fmt.Errorf("bench: %s: single-server baseline failed: %s", w.Name, strings.Join(base.failures, "; "))
		}
		in.singleUS = base.meanLatencyUS()
		phase("baseline", t0)
	}

	t0 = time.Now()
	deadline = time.Time{}
	if window > 0 {
		deadline = time.Now().Add(window * 35 / 100)
	}
	if in.trace, err = replay(w, seq[:min(len(seq), unloaded.attempted)], run, refs, h.db, deadline); err != nil {
		return nil, err
	}
	phase("replay", t0)
	res.Replayed = in.trace.requests
	// Compare like with like: the same requests, sent alone over the wire.
	unloaded.latencies = unloaded.latencies[:res.Replayed]
	in.unloadedUS = unloaded.meanLatencyUS()
	res.PerLayer = perLayerMetrics(w, run, in)
	// requests[i] names the query and route of the spans whose request is i.
	type tracedRequest struct {
		Query string `json:"query"`
		Route string `json:"route"`
	}
	requests := make([]tracedRequest, res.Replayed)
	for i := range requests {
		requests[i] = tracedRequest{w.Pool[seq[i]].Name, run.perQuery[seq[i]].first.Verdict.Method}
	}
	if err := writeJSON(filepath.Join(h.out, "trace-"+w.Name+".json"), map[string]any{
		"workload": w.Name, "seed": h.seed, "requests": requests, "spans": in.trace.spans,
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// contractRun is the BENCHMARK.json entry point: one workload, measured
// for `seconds`, ending in the one-line JSON result on out.
func (h *harness) contractRun(ctx context.Context, out io.Writer, name string, seconds float64, traced bool) error {
	var w *workload
	for i := range h.workloads {
		if h.workloads[i].Name == name {
			w = &h.workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	// Set-up is measured seven times for the end-to-end result and its
	// median reported, with a quarter of the full run's warm-up so the
	// seven fit beside the window; the layer view does not report it.
	p := runPlan{endToEnd: !traced, traced: traced, setups: 7, warmup: w.Count / 20 / 4, seconds: seconds, replayed: 1000}
	if traced {
		p.setups = 1
	}
	res, err := h.runWorkload(ctx, w, p)
	if err != nil {
		return err
	}
	printWorkload(os.Stderr, res)
	metrics := res.EndToEnd
	if traced {
		metrics = res.PerLayer
	} else {
		delete(metrics, failedRatio) // carried by attempted/failed below
	}
	for name, m := range metrics {
		m.Samples = 0
		metrics[name] = m
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.Failed == 0 && metrics != nil,
		"attempted": res.Requests,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

// fullRun measures every workload with its frozen request count (or for
// `seconds` each), wire run and traced run, and writes the result file.
func (h *harness) fullRun(ctx context.Context, quick bool, seconds float64) error {
	start := time.Now()
	out := &result{
		Provenance: provenanceOf(ctx, h.root), Seed: h.seed, Quick: quick, Clients: clients, Harness: h.times,
	}
	out.Defs.EndToEnd, out.Defs.PerLayer = endToEnd, perLayer
	fmt.Printf("bench: seed %d, %d clients closed-loop, server %s\n", h.seed, clients, h.bin)

	var structuredUS float64
	failed := 0
	for i := range h.workloads {
		w := &h.workloads[i]
		p := runPlan{endToEnd: true, traced: true, setups: 3, count: w.Count, warmup: w.Count / 20, seconds: seconds, replayed: 1000}
		if w.Name == "cyclic-dense" {
			p.replayed = w.Count // slow, few and varied: replay them all
		}
		if quick {
			p.setups, p.count, p.warmup, p.replayed = 1, countQuick, countQuick/20, 50
		}
		if w.Fleet > 0 {
			p.baselineUS = structuredUS
		}
		res, err := h.runWorkload(ctx, w, p)
		if err != nil {
			return err
		}
		if w.Name == "structured-families" {
			structuredUS = res.meanLatencyUS
		}
		printWorkload(os.Stdout, res)
		out.Workloads = append(out.Workloads, res)
		failed += res.Failed
	}
	h.times["harness.total_s"] = time.Since(start).Seconds()

	path := filepath.Join(h.out, "result.json")
	if quick {
		path = filepath.Join(h.out, "result-quick.json")
	}
	if err := writeJSON(path, out); err != nil {
		return err
	}
	fmt.Printf("\nbench: %s written in %.1fs; \"claim\": null\n", path, time.Since(start).Seconds())
	if failed > 0 {
		return fmt.Errorf("%d requests failed on a healthy server", failed)
	}
	return nil
}

// provenanceOf records where a result came from: what cmd/benchjson
// never did.
func provenanceOf(ctx context.Context, root string) provenance {
	p := provenance{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), CPUModel: "unknown", Date: time.Now().UTC().Format(time.RFC3339),
	}
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
		status := exec.CommandContext(ctx, "git", "status", "--porcelain")
		status.Dir = root
		if out, err := status.Output(); err == nil && len(out) > 0 {
			p.Commit += "+dirty"
		}
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}
