package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// shape projects a series onto its schedule-independent content: titles,
// methods, widths, and per-cell measurement/timeout counts. Durations
// are the only quantities allowed to differ between a sequential and a
// fanned-out sweep.
func shape(s *Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s\n", s.Title, s.XLabel)
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%g:", r.X)
		for _, c := range r.Cells {
			fmt.Fprintf(&b, " %s w=%d n=%d to=%d;",
				c.Method, c.Width, len(c.Sample.Durations), c.Sample.Timeouts)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func harnessConfig(workers int) Config {
	return Config{
		Seed:    7,
		Reps:    3,
		Timeout: 20 * time.Second,
		Workers: workers,
	}
}

// TestHarnessWorkerDeterminism runs the same structured sweep
// sequentially and with a 4-worker pool and checks the
// schedule-independent content matches exactly. Randomized instance
// generation and the SAT sweep (a fresh database per repetition) are
// covered by the second sweep. The harness evaluates every repetition
// without a subplan cache, which the subtest name records.
func TestHarnessWorkerDeterminism(t *testing.T) {
	t.Run("cache-off", func(t *testing.T) {
		run := func(workers int) (*Series, *Series) {
			s1, err := StructuredScaling(harnessConfig(workers), FamilyLadder, []int{4, 6})
			if err != nil {
				t.Fatal(err)
			}
			s2, err := SATScaling(harnessConfig(workers), 3, 8, []float64{2, 3})
			if err != nil {
				t.Fatal(err)
			}
			return s1, s2
		}
		seq1, seq2 := run(1)
		par1, par2 := run(4)
		if got, want := shape(par1), shape(seq1); got != want {
			t.Fatalf("structured sweep diverged across worker counts:\nworkers=1:\n%s\nworkers=4:\n%s", want, got)
		}
		if got, want := shape(par2), shape(seq2); got != want {
			t.Fatalf("SAT sweep diverged across worker counts:\nworkers=1:\n%s\nworkers=4:\n%s", want, got)
		}
	})
}
