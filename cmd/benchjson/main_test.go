package main

import (
	"reflect"
	"testing"
)

// TestParseLineKeepsCustomMetrics: lines captured from `go test -bench
// -benchmem` with b.ReportMetric units, one of them a float.
func TestParseLineKeepsCustomMetrics(t *testing.T) {
	for _, tc := range []struct {
		line string
		want result
		ok   bool
	}{
		{
			"BenchmarkServerAnswerFrame/encode/wide13kx3-2         \t     848\t   1358431 ns/op\t    160361 frame-bytes\t  654321 B/op\t      21 allocs/op",
			result{Name: "BenchmarkServerAnswerFrame/encode/wide13kx3", Iterations: 848, NsPerOp: 1358431,
				BytesPerOp: 654321, AllocsPerOp: 21, Metrics: map[string]float64{"frame-bytes": 160361}},
			true,
		},
		{
			"BenchmarkYannakakisChain/yannakakis-8 \t 3\t 3512345.5 ns/op\t 0.2500 hit-ratio\t 1.5e+06 stats-bytes\t 93000 B/op\t 412 allocs/op",
			result{Name: "BenchmarkYannakakisChain/yannakakis", Iterations: 3, NsPerOp: 3512345.5,
				BytesPerOp: 93000, AllocsPerOp: 412, Metrics: map[string]float64{"hit-ratio": 0.25, "stats-bytes": 1.5e6}},
			true,
		},
		{"BenchmarkKernelJoin-4 \t 100\t 52.75 ns/op", result{Name: "BenchmarkKernelJoin", Iterations: 100, NsPerOp: 52.75}, true},
		{"ok  \tprojpush/internal/server\t2.1s", result{}, false},
		{"BenchmarkBroken-2 \t many\t 1 ns/op", result{}, false},
	} {
		got, ok := parseLine(tc.line)
		if ok != tc.ok || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseLine(%q)\n got  %+v, %v\n want %+v, %v", tc.line, got, ok, tc.want, tc.ok)
		}
	}
}

// TestRecordingStampsCPUAndProcs: the lines of one captured `go test
// -bench` run, headers included, yield the results and the two stamp
// fields read off the output itself; without a "-N" suffix the run was
// at GOMAXPROCS 1.
func TestRecordingStampsCPUAndProcs(t *testing.T) {
	captured := []string{
		"goos: linux",
		"goarch: amd64",
		"pkg: projpush/internal/relation",
		"cpu: Intel(R) Xeon(R) Processor @ 2.10GHz",
		"BenchmarkKernelJoinProject/open-2 \t 1\t 1490000000 ns/op\t 9 B/op\t 1 allocs/op",
		"BenchmarkKernelJoinProject/map-baseline-2 \t 3\t 490000000 ns/op\t 9 B/op\t 1 allocs/op",
		"PASS",
		"ok  \tprojpush/internal/relation\t9.1s",
	}
	rec := recording{Stamp: stamp{GOMAXPROCS: 1}}
	for _, line := range captured {
		rec.add(line)
	}
	if len(rec.Results) != 2 || rec.Results[1].Name != "BenchmarkKernelJoinProject/map-baseline" {
		t.Fatalf("results = %+v", rec.Results)
	}
	if rec.Stamp.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" || rec.Stamp.GOMAXPROCS != 2 {
		t.Fatalf("stamp = %+v", rec.Stamp)
	}
	one := recording{Stamp: stamp{GOMAXPROCS: 1}}
	one.add("BenchmarkKernelJoin \t 100\t 52.75 ns/op")
	if len(one.Results) != 1 || one.Stamp.GOMAXPROCS != 1 {
		t.Fatalf("unsuffixed run: %+v", one)
	}
}
