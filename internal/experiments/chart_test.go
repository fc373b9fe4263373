package experiments

import (
	"strings"
	"testing"
	"time"

	"projpush/internal/core"
	"projpush/internal/stats"
)

// syntheticSeries builds a series with known medians for chart testing.
func syntheticSeries() *Series {
	s := &Series{Title: "synthetic", XLabel: "order"}
	mk := func(ds ...time.Duration) []Cell {
		cells := make([]Cell, len(ds))
		names := []string{"straightforward", "bucketelimination"}
		for i, d := range ds {
			cells[i].Method = names[i]
			if d == 0 {
				cells[i].Sample = stats.Sample{Timeouts: 3}
			} else {
				cells[i].Sample.Add(d)
			}
		}
		return cells
	}
	s.Rows = []Row{
		{X: 5, Cells: mk(time.Millisecond, 100*time.Microsecond)},
		{X: 10, Cells: mk(100*time.Millisecond, 200*time.Microsecond)},
		{X: 15, Cells: mk(0, 400*time.Microsecond)}, // straightforward times out
	}
	return s
}

func TestChartShape(t *testing.T) {
	out := Chart(syntheticSeries(), 12)
	if !strings.Contains(out, "synthetic") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "legend: S=straightforward  B=bucketelimination") {
		t.Fatalf("legend wrong:\n%s", out)
	}
	if !strings.Contains(out, "!") {
		t.Fatalf("timeout marker missing:\n%s", out)
	}
	// Axis labels present.
	for _, lbl := range []string{"5", "10", "15", "(order)"} {
		if !strings.Contains(out, lbl) {
			t.Fatalf("axis label %q missing:\n%s", lbl, out)
		}
	}
	// The slow method's first point sits below the top row; the fast
	// method's points sit near the bottom: count rows containing each.
	lines := strings.Split(out, "\n")
	var sRow, bRow = -1, -1
	for i, line := range lines {
		if strings.Contains(line, "S") && strings.Contains(line, "|") && sRow < 0 {
			sRow = i
		}
		if strings.Contains(line, "B") && strings.Contains(line, "|") && bRow < 0 {
			bRow = i
		}
	}
	if sRow < 0 || bRow < 0 {
		t.Fatalf("method symbols not plotted:\n%s", out)
	}
	if sRow >= bRow {
		t.Fatalf("slower method (S, row %d) must plot above faster (B, row %d):\n%s", sRow, bRow, out)
	}
}

func TestChartEmptySeries(t *testing.T) {
	out := Chart(&Series{Title: "empty"}, 10)
	if !strings.Contains(out, "no data") {
		t.Fatalf("empty chart:\n%s", out)
	}
}

func TestChartAllTimeouts(t *testing.T) {
	s := &Series{Title: "t", XLabel: "x"}
	var c Cell
	c.Method = "straightforward"
	c.Sample = stats.Sample{Timeouts: 2}
	s.Rows = []Row{{X: 1, Cells: []Cell{c}}}
	out := Chart(s, 8)
	if !strings.Contains(out, "!") {
		t.Fatalf("all-timeout chart:\n%s", out)
	}
}

func TestChartOnRealSweep(t *testing.T) {
	cfg := fast()
	cfg.Methods = []core.Method{core.MethodEarlyProjection, core.MethodBucketElimination}
	s, err := StructuredScaling(cfg, FamilyAugmentedPath, []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	out := Chart(s, 10)
	if !strings.Contains(out, "E=earlyprojection") || !strings.Contains(out, "B=bucketelimination") {
		t.Fatalf("real sweep chart:\n%s", out)
	}
}

func TestMethodSymbolsDisambiguate(t *testing.T) {
	s := &Series{Rows: []Row{{Cells: []Cell{
		{Method: "straightforward"},
		{Method: "strange"}, // S taken, falls to T
		{Method: "sturdy"},  // S, T taken, falls to U
	}}}}
	sym := methodSymbols(s)
	if sym[0] == sym[1] || sym[1] == sym[2] || sym[0] == sym[2] {
		t.Fatalf("symbols collide: %c %c %c", sym[0], sym[1], sym[2])
	}
}

func TestCSV(t *testing.T) {
	out := CSV(syntheticSeries())
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv shape:\n%s", out)
	}
	if lines[0] != "order,straightforward,bucketelimination" {
		t.Fatalf("csv header: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "5,0.001,0.0001") {
		t.Fatalf("csv row: %q", lines[1])
	}
	// Timeout cell is empty.
	if !strings.HasPrefix(lines[3], "15,,") {
		t.Fatalf("timeout row: %q", lines[3])
	}

	// A failed repetition grows one aborted column per method.
	failed := syntheticSeries()
	failed.Rows[0].Cells[0].fail("rowcap")
	flines := strings.Split(CSV(failed), "\n")
	if flines[0] != "order,straightforward,bucketelimination,straightforward_aborted,bucketelimination_aborted" {
		t.Fatalf("csv header with a failure: %q", flines[0])
	}
	if flines[1] != "5,0.001,0.0001,1,0" {
		t.Fatalf("csv row with a failure: %q", flines[1])
	}
	// A clean sweep grows no failure columns (header stability).
	clean, err := StructuredScaling(robustConfig(), FamilyAugmentedPath, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if out := CSV(clean); strings.Contains(out, "_aborted") {
		t.Fatalf("clean sweep CSV grew failure columns:\n%s", out)
	}
}
