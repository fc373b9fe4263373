// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON array on stdout, one object per benchmark result with the
// name, iteration count, ns/op, B/op, allocs/op, and every custom
// b.ReportMetric value under its unit (stats-bytes, peak-bytes,
// frame-bytes, ...). It is the back end of `make bench-json`, which
// records the microbenchmark series in the BENCH_*.json files.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

type result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Metrics holds the b.ReportMetric values by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	results := []result{} // never nil: no matches must encode as [], not null
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		if r, ok := parseLine(sc.Text()); ok {
			results = append(results, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseLine parses one benchmark result line:
//
//	BenchmarkName-8  1234  5678 ns/op  156872 frame-bytes  90 B/op  12 allocs/op
//
// Values are floats (custom metrics and sub-nanosecond ns/op are printed
// with decimals); a unit other than B/op and allocs/op is kept under
// Metrics.
func parseLine(line string) (result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
		return result{}, false
	}
	r := result{Name: strings.TrimSuffix(f[0], cpuSuffix(f[0]))}
	var err error
	if r.Iterations, err = strconv.ParseInt(f[1], 10, 64); err != nil {
		return result{}, false
	}
	if r.NsPerOp, err = strconv.ParseFloat(f[2], 64); err != nil {
		return result{}, false
	}
	for i := 4; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch unit := f[i+1]; unit {
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = v
		}
	}
	return r, true
}

// cpuSuffix returns the trailing "-N" GOMAXPROCS suffix of a benchmark
// name, or "" if absent, so names stay stable across machines.
func cpuSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return ""
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return ""
	}
	return name[i:]
}
