package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and the definitions in report.go name the same
// metrics, units, directions and bounds, and the same workloads.
func TestBenchmarkJSONMatchesTheDefinitions(t *testing.T) {
	b := readBenchmarkJSON(t)
	plain := func(defs []metricDef) []metricDef {
		out := make([]metricDef, len(defs))
		for i, d := range defs {
			d.exact = false
			out[i] = d
		}
		return out
	}
	if !reflect.DeepEqual(b.EndToEnd, plain(endToEnd)) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", b.EndToEnd, plain(endToEnd))
	}
	if !reflect.DeepEqual(b.PerLayer, plain(perLayer)) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", b.PerLayer, plain(perLayer))
	}
	ws := generateWorkloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d generated", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %+v, code {%s %s}", i, b.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", b.Paths)
	}
}

// The quick run is the benchmark-rot smoke: every workload through the
// wire and the traced replay, every metric present, nothing failed,
// and -check accepting a result against itself.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs projpushd")
	}
	ctx := context.Background()
	h, err := newHarness(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.fullRun(ctx, true, 0); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(h.out, "result-quick.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != 5 || res.Claim != nil {
		t.Fatalf("%d workloads, claim %v", len(res.Workloads), res.Claim)
	}
	for _, w := range res.Workloads {
		if w.Failed != 0 || w.Samples != countQuick {
			t.Errorf("%s: %d samples, %d failed", w.Name, w.Samples, w.Failed)
		}
		for _, d := range endToEnd {
			if m, ok := w.EndToEnd[d.Name]; !ok || m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v", w.Name, d.Name, m.Value)
			}
		}
		if len(w.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.Name, len(w.PerLayer), len(perLayer))
		}
		if _, err := os.Stat(filepath.Join(h.out, "trace-"+w.Name+".json")); err != nil {
			t.Error(err)
		}
	}

	var report bytes.Buffer
	if n, err := check(&report, path, path); err != nil || n != 0 {
		t.Errorf("a result checked against itself: %d violations, err %v\n%s", n, err, report.String())
	}
	// A slower copy must be caught, and so must a moved exact count.
	w := res.Workloads[0]
	m := w.EndToEnd["latency_p50_ms"]
	m.Value *= 1.5
	w.EndToEnd["latency_p50_ms"] = m
	c := w.PerLayer["engine.tuples_per_req"]
	c.Value++
	w.PerLayer["engine.tuples_per_req"] = c
	worse := filepath.Join(t.TempDir(), "worse.json")
	if err := writeJSON(worse, &res); err != nil {
		t.Fatal(err)
	}
	if n, err := check(&report, path, worse); err != nil || n != 2 {
		t.Errorf("a 50%% slower p50 and a moved count: %d violations, err %v", n, err)
	}
}

// The contract entry point ends with one JSON line carrying exactly the
// metrics BENCHMARK.json lists for that trace mode.
func TestContractRunPrintsTheListedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs projpushd")
	}
	ctx := context.Background()
	h, err := newHarness(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		traced bool
		defs   []metricDef
	}{{false, endToEnd}, {true, perLayer}} {
		var out bytes.Buffer
		if err := h.contractRun(ctx, &out, "selective-acyclic", 1, tc.traced); err != nil {
			t.Fatal(err)
		}
		var line struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal(out.Bytes(), &line); err != nil {
			t.Fatalf("%v in %q", err, out.String())
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("traced=%v: %+v", tc.traced, line)
		}
		if len(line.Metrics) != len(tc.defs) {
			t.Errorf("traced=%v: %d metrics, want %d", tc.traced, len(line.Metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("traced=%v: metric %s: %+v", tc.traced, d.Name, m)
			}
		}
	}
}

// The host probe samples while it runs, answers for the interval asked
// about and for no other, and leaves a timing at the quiet ratio alone.
func TestHostProbe(t *testing.T) {
	p := startHostProbe()
	from := time.Now()
	time.Sleep(200 * time.Millisecond)
	to := time.Now()
	p.close()
	p.close()
	if r := p.ratio(from, to); r < 0.3 || r > 10 {
		t.Errorf("ratio over 200 ms of sampling = %v", r)
	}
	if r := p.ratio(to.Add(time.Hour), to.Add(2*time.Hour)); r != quietRatio {
		t.Errorf("ratio over an interval without samples = %v, want %v", r, quietRatio)
	}
	if s := slowdown(quietRatio); s != 1 {
		t.Errorf("slowdown at the quiet ratio = %v", s)
	}
	if s := slowdown(2 * quietRatio); s <= 1 || s >= 2 {
		t.Errorf("slowdown at twice the quiet ratio = %v", s)
	}
}
