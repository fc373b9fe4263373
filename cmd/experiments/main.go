// Command experiments reproduces the paper's figures. Each figure is a
// sweep over query size or density comparing the optimization methods;
// the output is the table of median running times the paper plots.
//
//	experiments -figure 3              # density scaling, order 20
//	experiments -figure 8 -scale 0.5   # augmented ladders at half the paper's orders
//	experiments -figure all -reps 3
//
// Paper-scale parameters are the defaults; -scale shrinks the sweep for
// quick runs (the shapes are visible well below full scale). Runs that
// exceed -timeout are reported as "timeout", as the paper reports the
// straightforward method on augmented circular ladders.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"projpush/internal/core"
	"projpush/internal/experiments"
	"projpush/internal/faultinject"
)

func main() {
	var (
		figure    = flag.String("figure", "all", "figure to reproduce: 2,3,4,5,6,7,8,9,sat or all")
		scale     = flag.Float64("scale", 1.0, "scale factor on sweep sizes (0.5 = half the paper's orders)")
		reps      = flag.Int("reps", 5, "instances per data point (medians reported)")
		seed      = flag.Int64("seed", 1, "random seed")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-run execution timeout")
		free      = flag.Float64("free", -1, "free-variable fraction; -1 runs both Boolean and 20% variants")
		chart     = flag.Bool("chart", false, "render ASCII logscale charts (the paper's figure style) instead of tables")
		csv       = flag.Bool("csv", false, "emit CSV (median seconds per method) instead of tables")
		workers   = flag.Int("workers", 1, "harness goroutines per data point, also the planner's GEQO island count; structural methods are identical for any value, the cost-based naive planner on GEQO-sized queries depends deterministically on it (default matches the serial planner)")
		membudget = flag.Int("membudget", 0, "per-run materialized-bytes budget in MiB (0 = unlimited); runs that blow it are annotated 'membudget'")
		faults    = flag.String("faults", "", "fault-injection spec for robustness drills, e.g. 'join.panic=0.01,experiment.panic=0.1'; points: "+strings.Join(faultinject.PointNames(), ", "))
		faultseed = flag.Int64("faultseed", 1, "seed for the fault-injection coin flips")
		methods   = flag.String("methods", "", "comma-separated method list overriding the paper's default grid (straightforward, earlyprojection, reordering, bucketelimination, yannakakis, stream, wcoj)")
	)
	flag.Parse()

	if *faults != "" {
		if err := faultinject.Enable(*faults, *faultseed); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: -faults:", err)
			os.Exit(1)
		}
		defer faultinject.Disable()
	}

	render := func(s *experiments.Series) string {
		switch {
		case *csv:
			return experiments.CSV(s)
		case *chart:
			return experiments.Chart(s, 16)
		default:
			return experiments.Report(s)
		}
	}

	base := experiments.Config{
		Seed: *seed, Reps: *reps, Timeout: *timeout, Workers: *workers,
		MaxBytes: int64(*membudget) << 20,
	}
	if *methods != "" {
		ms, err := parseMethods(*methods)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: -methods:", err)
			os.Exit(1)
		}
		base.Methods = ms
	}
	variants := []float64{0, 0.2}
	if *free >= 0 {
		variants = []float64{*free}
	}

	run := func(name string, f func(cfg experiments.Config) (*experiments.Series, error)) {
		for _, fr := range variants {
			cfg := base
			cfg.FreeFraction = fr
			s, err := f(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Printf("== %s ==\n%s\n", name, render(s))
		}
	}

	want := func(name string) bool { return *figure == "all" || *figure == name }

	if want("2") {
		// Figure 2 has no Boolean/non-Boolean split.
		cfg := base
		s, err := experiments.CompileTimeScaling(cfg, 5, scaleFloats([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Printf("== Figure 2: compile-time scaling (3-SAT, 5 variables) ==\n%s\n", render(s))
	}
	if want("3") {
		run("Figure 3: 3-COLOR density scaling, order 20", func(cfg experiments.Config) (*experiments.Series, error) {
			order := scaleInt(20, *scale, 6)
			return experiments.DensityScaling(cfg, order, []float64{0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 5, 6, 7, 8})
		})
	}
	if want("4") {
		run("Figure 4: 3-COLOR order scaling, density 3.0", func(cfg experiments.Config) (*experiments.Series, error) {
			return experiments.OrderScaling(cfg, 3.0, scaleInts([]int{10, 15, 20, 25, 30, 35}, *scale, 6))
		})
	}
	if want("5") {
		run("Figure 5: 3-COLOR order scaling, density 6.0", func(cfg experiments.Config) (*experiments.Series, error) {
			return experiments.OrderScaling(cfg, 6.0, scaleInts([]int{15, 20, 25, 30}, *scale, 8))
		})
	}
	structured := []struct {
		fig    string
		family experiments.Family
		orders []int
	}{
		{"6", experiments.FamilyAugmentedPath, []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}},
		{"7", experiments.FamilyLadder, []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}},
		{"8", experiments.FamilyAugmentedLadder, []int{5, 10, 15, 20, 25, 30}},
		{"9", experiments.FamilyAugmentedCircularLadder, []int{5, 10, 15, 20, 25, 30}},
	}
	for _, sc := range structured {
		if !want(sc.fig) {
			continue
		}
		sc := sc
		run(fmt.Sprintf("Figure %s: %s order scaling", sc.fig, sc.family), func(cfg experiments.Config) (*experiments.Series, error) {
			return experiments.StructuredScaling(cfg, sc.family, scaleInts(sc.orders, *scale, 3))
		})
	}
	if want("sat") {
		run("Section 7: 3-SAT density scaling, 12 variables", func(cfg experiments.Config) (*experiments.Series, error) {
			n := scaleInt(12, *scale, 6)
			return experiments.SATScaling(cfg, 3, n, []float64{1, 2, 3, 4, 5, 6})
		})
		run("Section 7: 2-SAT density scaling, 14 variables", func(cfg experiments.Config) (*experiments.Series, error) {
			n := scaleInt(14, *scale, 6)
			return experiments.SATScaling(cfg, 2, n, []float64{0.5, 1, 1.5, 2, 3})
		})
	}
}

func parseMethods(spec string) ([]core.Method, error) {
	var out []core.Method
	for _, name := range strings.Split(spec, ",") {
		m := core.Method(strings.TrimSpace(name))
		if m == "" {
			continue
		}
		if !core.Known(m) {
			return nil, fmt.Errorf("unknown method %q", m)
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty method list")
	}
	return out, nil
}

func scaleInt(x int, s float64, min int) int {
	v := int(float64(x)*s + 0.5)
	if v < min {
		v = min
	}
	return v
}

func scaleInts(xs []int, s float64, min int) []int {
	out := make([]int, 0, len(xs))
	seen := map[int]bool{}
	for _, x := range xs {
		v := scaleInt(x, s, min)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func scaleFloats(xs []float64, s float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * s
	}
	return out
}
