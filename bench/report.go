package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"projpush/internal/core"
	"projpush/internal/stats"
)

// metricDef names one metric. BENCHMARK.json lists the same names,
// units, directions and bounds; bench_test.go keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: the share it may worsen by
	// exact marks a count that repeats exactly for a given seed and
	// request count; -check requires such metrics to be equal.
	exact bool
}

// endToEnd is what a client of projpushd sees, from the untraced wire
// run. failed_ratio is reported and gated by -check too, but is not in
// BENCHMARK.json: the contract wants metrics that are never 0 and
// carries failures in its own attempted/failed keys.
var endToEnd = []metricDef{
	{Name: "throughput_rps", Unit: "req/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "server_peak_bytes_per_req", Unit: "bytes", Better: "lower", Bound: 0.05, exact: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const failedRatio = "failed_ratio"

var routes = []core.Method{core.MethodYannakakis, core.MethodStream, core.MethodWCOJ, core.MethodBucketElimination}

// perLayer is the layer view: counts from the wire run (exact ones
// marked), timings from the traced replay.
var perLayer = func() []metricDef {
	us := func(name string) metricDef { return metricDef{Name: name, Unit: "us", Better: "lower"} }
	count := func(name, unit, better string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: better, exact: true}
	}
	defs := []metricDef{
		us("cqparse.parse_us"),
		count("cqparse.query_bytes_per_req", "bytes", "lower"),
		us("core.plan_us"),
		us("server.admit_width_us"),
		us("server.fingerprint_us"),
		count("server.shed_ratio", "ratio", "lower"),
		count("server.degraded_ratio", "ratio", "lower"),
		count("server.over_width_ratio", "ratio", "lower"),
		us("engine.exec_us"),
		us("engine.server_exec_us"),
	}
	for _, r := range routes {
		defs = append(defs, count("engine.route_share."+string(r), "ratio", "higher"))
	}
	for _, r := range routes {
		defs = append(defs, us("engine.exec_us."+string(r)))
	}
	return append(defs,
		count("engine.tuples_per_req", "count", "lower"),
		count("engine.bytes_per_req", "bytes", "lower"),
		count("engine.materialized_per_req", "count", "lower"),
		count("engine.reduced_per_req", "count", "higher"),
		count("engine.seeks_per_req", "count", "lower"),
		count("engine.extensions_per_req", "count", "lower"),
		count("engine.max_arity", "count", "lower"),
		us("server.encode_us"),
		count("server.response_bytes_per_req", "bytes", "lower"),
		us("client.decode_us"),
		us("wire.rtt_us"),
		metricDef{Name: "wire.latency_p99_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "wire.latency_max_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "wire.measured_throughput_rps", Unit: "req/s", Better: "higher"},
		metricDef{Name: "wire.measured_latency_p50_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "wire.measured_latency_p95_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "host.ratio", Unit: "ratio", Better: "lower"},
		us("cluster.hop_us"),
		us("cluster.affinity_us"),
		count("cluster.failovers_per_req", "count", "lower"),
		count("cluster.hedged_ratio", "ratio", "lower"),
		metricDef{Name: "cluster.worker_share_max", Unit: "ratio", Better: "lower"},
		count("cluster.affinity_stable_ratio", "ratio", "higher"),
		metricDef{Name: "proc.server_cpu_ms_per_req", Unit: "ms", Better: "lower"},
		metricDef{Name: "proc.server_rss_mb", Unit: "MB", Better: "lower"},
		metricDef{Name: "proc.client_cpu_ms_per_req", Unit: "ms", Better: "lower"},
		metricDef{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
		us("trace.residual_us"),
		metricDef{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	)
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many measurements the value summarizes.
	Samples int `json:"samples,omitempty"`
}

// queryRow is one distinct query's share of a wire run: the first thing
// to read when a workload's numbers move.
type queryRow struct {
	Name      string  `json:"name"`
	Route     string  `json:"route"`
	Count     int     `json:"count"`
	MeanMS    float64 `json:"mean_ms"`
	BusyShare float64 `json:"busy_share"`
	Rows      int     `json:"rows"`
}

// workloadResult is everything measured on one workload.
type workloadResult struct {
	Name       string   `json:"name"`
	Why        string   `json:"why"`
	ServerArgv []string `json:"server_argv"`
	// Requests is the timed window's attempted count, Warmup the untimed
	// requests before it, Samples the verified-ok answers the latency
	// percentiles rank, Replayed the requests of the traced run.
	Requests int `json:"requests"`
	Warmup   int `json:"warmup"`
	Samples  int `json:"samples"`
	Failed   int `json:"failed"`
	Replayed int `json:"replayed"`
	// Failures holds the first few failure descriptions, if any.
	Failures []string `json:"failures,omitempty"`
	// HostRatio is the host probe's ratio over the timed window; the
	// end-to-end timings are the measured ones brought from it to
	// quietRatio (see host.go).
	HostRatio float64            `json:"host_ratio"`
	EndToEnd  map[string]metric  `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric  `json:"per_layer,omitempty"`
	Queries   []queryRow         `json:"queries,omitempty"`
	PhaseS    map[string]float64 `json:"phase_seconds"`

	meanLatencyUS float64 // of the loaded wire run, for cluster.hop_us
}

// provenance is where a result came from.
type provenance struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Date       string `json:"date"`
}

// result is the benchmark's output file. Claim is last and null: this
// benchmark measures, it does not claim.
type result struct {
	Provenance provenance         `json:"provenance"`
	Seed       int64              `json:"seed"`
	Quick      bool               `json:"quick"`
	Clients    int                `json:"clients"`
	Harness    map[string]float64 `json:"harness"`
	Defs       struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	} `json:"metric_definitions"`
	Workloads []*workloadResult `json:"workloads"`
	Claim     *string           `json:"claim"`
}

// endToEndMetrics summarizes a timed wire run and its set-ups. The
// timings are the measured ones brought to a quiet host (see host.go);
// the layer view carries the window's measured ones beside the ratio.
func endToEndMetrics(run *wireRun, setups []float64) map[string]metric {
	n, ms, slow := run.ok(), run.latenciesMS(), slowdown(run.hostRatio)
	return map[string]metric{
		"throughput_rps":            {Value: float64(n) / run.elapsed.Seconds() * slow, Unit: "req/s", Samples: n},
		"latency_p50_ms":            {Value: stats.Percentile(ms, 50) / slow, Unit: "ms", Samples: n},
		"latency_p95_ms":            {Value: stats.Percentile(ms, 95) / slow, Unit: "ms", Samples: n},
		"server_peak_bytes_per_req": {Value: float64(run.peakBytes) / float64(max(1, n)), Unit: "bytes", Samples: n},
		"setup_s":                   {Value: stats.Median(setups), Unit: "s", Samples: len(setups)},
		failedRatio:                 {Value: float64(run.failed) / float64(max(1, run.attempted)), Unit: "ratio", Samples: run.attempted},
	}
}

// layerInputs is what perLayerMetrics draws on besides the loaded run.
type layerInputs struct {
	trace *traceSummary
	// unloadedUS is the mean round trip of the replayed requests sent by
	// one client to an otherwise idle server.
	unloadedUS float64
	rttUS      float64
	// singleUS is the mean loaded latency of the same requests against a
	// single server (fleet workloads only).
	singleUS float64
}

// perLayerMetrics is the layer view of one workload.
func perLayerMetrics(w *workload, run *wireRun, in layerInputs) map[string]metric {
	n, ms := run.ok(), run.latenciesMS()
	perOK := func(sum int64) float64 { return float64(sum) / float64(max(1, n)) }
	perAttempt := func(c int) float64 { return float64(c) / float64(max(1, run.attempted)) }
	tr := in.trace

	var queryBytes, respBytes int64
	stable, distinct := 0, 0
	for i, agg := range run.perQuery {
		queryBytes += int64(agg.count * len(w.Pool[i].Text))
		if agg.first != nil {
			respBytes += int64(agg.count * responseBytes(agg.first))
			distinct++
			if len(agg.workers) == 1 {
				stable++
			}
		}
	}
	shareMax := 0.0
	for _, c := range run.workers {
		shareMax = math.Max(shareMax, float64(c)/float64(max(1, n)))
	}

	v := map[string]float64{
		"cqparse.parse_us":              tr.selfUS[spanParse],
		"cqparse.query_bytes_per_req":   perOK(queryBytes),
		"core.plan_us":                  tr.selfUS[spanPlan],
		"server.admit_width_us":         tr.selfUS[spanAdmit],
		"server.fingerprint_us":         tr.selfUS[spanFingerprint],
		"server.shed_ratio":             perAttempt(run.shed),
		"server.degraded_ratio":         perAttempt(run.degraded),
		"server.over_width_ratio":       perAttempt(run.overWidth),
		"engine.exec_us":                tr.selfUS[spanExec],
		"engine.server_exec_us":         perOK(run.execUS),
		"engine.tuples_per_req":         perOK(run.tuples),
		"engine.bytes_per_req":          perOK(run.bytes),
		"engine.materialized_per_req":   perOK(run.materialized),
		"engine.reduced_per_req":        perOK(run.reduced),
		"engine.seeks_per_req":          perOK(run.seeks),
		"engine.extensions_per_req":     perOK(run.extensions),
		"engine.max_arity":              float64(run.maxArity),
		"server.encode_us":              tr.selfUS[spanEncode],
		"server.response_bytes_per_req": perOK(respBytes),
		"client.decode_us":              tr.selfUS[spanDecode],
		"wire.rtt_us":                   in.rttUS,
		"wire.latency_p99_ms":           stats.Percentile(ms, 99),
		"wire.latency_max_ms":           stats.Percentile(ms, 100),
		"wire.measured_throughput_rps":  float64(n) / run.elapsed.Seconds(),
		"wire.measured_latency_p50_ms":  stats.Percentile(ms, 50),
		"wire.measured_latency_p95_ms":  stats.Percentile(ms, 95),
		"host.ratio":                    run.hostRatio,
		"proc.server_cpu_ms_per_req":    float64(run.serverCPU.Microseconds()) / 1e3 / float64(max(1, run.attempted)),
		"proc.server_rss_mb":            run.serverHWMMB,
		"proc.client_cpu_ms_per_req":    float64(run.clientCPU.Microseconds()) / 1e3 / float64(max(1, run.attempted)),
		"trace.coverage":                tr.layersUS() / in.unloadedUS,
		"trace.residual_us":             in.unloadedUS - tr.layersUS(),
		"trace.overhead_ratio":          tr.overhead,
		// cluster.* stay 0 on a single server.
		"cluster.hop_us":                0,
		"cluster.affinity_us":           tr.totalUS[spanAffinity],
		"cluster.failovers_per_req":     perOK(int64(run.failovers)),
		"cluster.hedged_ratio":          perOK(int64(run.hedged)),
		"cluster.worker_share_max":      shareMax,
		"cluster.affinity_stable_ratio": 0,
	}
	if w.Fleet > 0 {
		v["cluster.hop_us"] = run.meanLatencyUS() - in.singleUS
		v["cluster.affinity_stable_ratio"] = float64(stable) / float64(max(1, distinct))
	}
	for _, r := range routes {
		v["engine.route_share."+string(r)] = perOK(int64(run.routes[string(r)]))
		v["engine.exec_us."+string(r)] = tr.execUS[string(r)]
	}

	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		val, ok := v[d.Name]
		if !ok {
			panic("bench: per-layer metric " + d.Name + " is defined but never computed")
		}
		out[d.Name] = metric{Value: val, Unit: d.Unit}
	}
	return out
}

// queryRows is the per-distinct-query breakdown of a wire run.
func queryRows(w *workload, run *wireRun, refs []reference) []queryRow {
	var busy time.Duration
	for _, agg := range run.perQuery {
		busy += agg.latency
	}
	rows := make([]queryRow, 0, len(w.Pool))
	for i, agg := range run.perQuery {
		row := queryRow{Name: w.Pool[i].Name, Count: agg.count, Rows: refs[i].rows}
		if agg.first != nil {
			row.Route = agg.first.Verdict.Method
			row.MeanMS = float64(agg.latency.Microseconds()) / 1e3 / float64(agg.count)
			row.BusyShare = float64(agg.latency) / float64(busy)
		}
		rows = append(rows, row)
	}
	return rows
}

// printWorkload writes every metric of one workload by name with its
// unit, end-to-end first, then the layers in definition order.
func printWorkload(out io.Writer, r *workloadResult) {
	fmt.Fprintf(out, "\n== %s  (%s)\n", r.Name, r.Why)
	fmt.Fprintf(out, "   server: %v\n", r.ServerArgv)
	fmt.Fprintf(out, "   requests %d (+%d warm-up), %d verified-ok samples, %d failed, %d replayed\n",
		r.Requests, r.Warmup, r.Samples, r.Failed, r.Replayed)
	for _, f := range r.Failures {
		fmt.Fprintf(out, "   FAILED %s\n", f)
	}
	fmt.Fprintf(out, "   host ratio %.3f (quiet %.1f): the window ran %.3f times slower than on a quiet host\n", r.HostRatio, quietRatio, slowdown(r.HostRatio))
	line := func(d metricDef, m metric) {
		note := ""
		if d.Bound > 0 {
			note = fmt.Sprintf("  [%s is better, bound %.0f%%]", d.Better, 100*d.Bound)
		}
		if m.Samples > 0 {
			note += fmt.Sprintf("  n=%d", m.Samples)
		}
		fmt.Fprintf(out, "   %-34s %14.4f %-6s%s\n", d.Name, m.Value, m.Unit, note)
	}
	if r.EndToEnd != nil {
		for _, d := range endToEnd {
			line(d, r.EndToEnd[d.Name])
		}
		line(metricDef{Name: failedRatio}, r.EndToEnd[failedRatio])
	}
	if r.PerLayer != nil {
		for _, d := range perLayer {
			line(d, r.PerLayer[d.Name])
		}
	}
	if len(r.Queries) > 0 {
		fmt.Fprintf(out, "   %-22s %-18s %6s %8s %10s %6s\n", "query", "route", "count", "rows", "mean ms", "busy")
		for _, q := range r.Queries {
			fmt.Fprintf(out, "   %-22s %-18s %6d %8d %10.3f %5.1f%%\n", q.Name, q.Route, q.Count, q.Rows, q.MeanMS, 100*q.BusyShare)
		}
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// check compares two result files workload by workload: every
// end-to-end metric of b may be worse than a's by at most its bound,
// failed_ratio may not rise at all, and exact counts must be equal.
// It returns the number of violations.
func check(out io.Writer, pathA, pathB string) (int, error) {
	var a, b result
	for _, f := range []struct {
		path string
		into *result
	}{{pathA, &a}, {pathB, &b}} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			return 0, err
		}
		if err := json.Unmarshal(data, f.into); err != nil {
			return 0, fmt.Errorf("%s: %w", f.path, err)
		}
	}
	if a.Seed != b.Seed || a.Quick != b.Quick {
		return 0, fmt.Errorf("bench: results are not comparable: seed %d quick=%v against seed %d quick=%v", a.Seed, a.Quick, b.Seed, b.Quick)
	}
	byName := make(map[string]*workloadResult)
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	violations := 0
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil {
			fmt.Fprintf(out, "%-20s missing from %s\n", wa.Name, pathB)
			violations++
			continue
		}
		fmt.Fprintf(out, "\n== %s\n   %-30s %14s %14s %9s %8s\n", wa.Name, "metric", "a", "b", "delta", "bound")
		for _, d := range append(endToEnd[:len(endToEnd):len(endToEnd)], metricDef{Name: failedRatio, Better: "lower"}) {
			va, vb := wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value
			worse := vb - va
			if d.Better == "higher" {
				worse = va - vb
			}
			verdict := "ok"
			if worse > d.Bound*math.Abs(va) {
				verdict = "VIOLATION"
				violations++
			}
			delta := 0.0
			if va != 0 {
				delta = (vb - va) / va
			}
			fmt.Fprintf(out, "   %-30s %14.4f %14.4f %+8.2f%% %7.0f%%  %s\n", d.Name, va, vb, 100*delta, 100*d.Bound, verdict)
		}
		if wa.Requests != wb.Requests {
			// Exact counts are per request of a fixed sequence; a run
			// measured for a duration sends a different number.
			fmt.Fprintf(out, "   request counts differ (%d, %d): exact counts not compared\n", wa.Requests, wb.Requests)
			continue
		}
		exact := func(d metricDef, va, vb float64) {
			if d.exact && va != vb {
				fmt.Fprintf(out, "   %-30s %14.4f %14.4f  exact count differs  VIOLATION\n", d.Name, va, vb)
				violations++
			}
		}
		for _, d := range endToEnd {
			exact(d, wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value)
		}
		for _, d := range perLayer {
			exact(d, wa.PerLayer[d.Name].Value, wb.PerLayer[d.Name].Value)
		}
	}
	return violations, nil
}
