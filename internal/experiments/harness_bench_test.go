package experiments

import (
	"fmt"
	"testing"
	"time"
)

// benchSweep is one fixed structured sweep: 4 reps × 4 methods × 2
// orders = 32 measurements per invocation, the grid the worker pool
// fans out.
func benchSweep(b *testing.B, workers int) {
	b.Helper()
	cfg := Config{Seed: 11, Reps: 4, Timeout: 30 * time.Second, Workers: workers}
	if _, err := StructuredScaling(cfg, FamilyLadder, []int{5, 7}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHarnessWorkers measures the batch-evaluation harness at
// increasing worker counts on a fixed sweep. Speedup tracks available
// cores: on a multi-core machine the independent (rep, method) cells
// scale near-linearly to the core count; on a single-CPU host (the CI
// container) all counts measure flat, as DESIGN.md notes for the other
// parallel paths.
func BenchmarkHarnessWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSweep(b, w)
			}
		})
	}
}
