// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON object on stdout: one entry per benchmark result with the
// name, iteration count, ns/op, B/op, allocs/op, and every custom
// b.ReportMetric value under its unit (stats-bytes, peak-bytes,
// frame-bytes, ...), under a stamp saying where the numbers were taken.
// It is the back end of `make bench-json`, which records the
// microbenchmark series in the BENCH_*.json files.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// stamp records what a file's numbers were taken on, so that a stale file
// or a one-shot recording on a noisy host can be told from a regression.
type stamp struct {
	// Commit is `git describe --always` when the file was written, plus
	// -dirty when a tracked file other than a BENCH_*.json differs from it.
	// `make bench-json` rewrites those files one after another, so every
	// series recorded from a clean tree is stamped with no -dirty.
	Commit string `json:"commit"`
	Go     string `json:"go"`
	// GOMAXPROCS is read off the benchmark names' "-N" suffix, which go
	// test leaves out at 1.
	GOMAXPROCS int `json:"gomaxprocs"`
	// CPU is go test's "cpu:" header line.
	CPU string `json:"cpu"`
}

type recording struct {
	Stamp   stamp    `json:"stamp"`
	Results []result `json:"results"`
}

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
	commit := "unknown"
	if out, err := exec.Command("git", "describe", "--always").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
		diff := exec.Command("git", "status", "--porcelain", "--untracked-files=no", "--", ":/", ":(top,exclude)BENCH_*.json")
		if changed, err := diff.Output(); err != nil || len(changed) > 0 {
			commit += "-dirty"
		}
	}
	rec := recording{
		Stamp:   stamp{Commit: commit, Go: runtime.Version(), GOMAXPROCS: 1},
		Results: []result{}, // never nil: no matches must encode as [], not null
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		rec.add(sc.Text())
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// add folds one line of go test output into the recording: a result
// line, or the header line naming the CPU.
func (rec *recording) add(line string) {
	if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
		rec.Stamp.CPU = cpu
		return
	}
	r, ok := parseLine(line)
	if !ok {
		return
	}
	rec.Results = append(rec.Results, r)
	if n, err := strconv.Atoi(strings.TrimPrefix(cpuSuffix(strings.Fields(line)[0]), "-")); err == nil {
		rec.Stamp.GOMAXPROCS = n
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
