// Package experiments defines the paper's experiments (Figures 2–9 plus
// the 3-SAT/2-SAT consistency check of Section 7) as reusable sweeps:
// generate instances, translate them to project-join queries, build a
// plan per optimization method, execute with a timeout, and report median
// times the way the paper's plots do.
//
// The harness separates the two quantities the paper measures: plan
// construction ("compile") effort, which is what blows up for the
// cost-based naive method (Figure 2), and query execution time, which is
// what the structural methods improve (Figures 3–9).
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/faultinject"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/jointree"
	"projpush/internal/pgplanner"
	"projpush/internal/plan"
	"projpush/internal/resilience"
	"projpush/internal/stats"
)

// Config controls a sweep.
type Config struct {
	// Seed makes the sweep reproducible.
	Seed int64
	// Reps is the number of instances measured per point; the paper
	// reports medians over repetitions.
	Reps int
	// Timeout bounds each run; aborted runs are reported as timeouts,
	// matching the paper's "timing out at around order 7" remarks.
	Timeout time.Duration
	// MaxRows caps intermediate results as a memory guard (0 = none).
	MaxRows int
	// MaxBytes caps the bytes of relation storage each run may
	// materialize (engine.Options.MaxBytes); 0 means no byte budget.
	MaxBytes int64
	// FreeFraction is the fraction of vertices kept free; 0 runs the
	// Boolean variant (one projected variable), 0.2 the paper's
	// non-Boolean variant.
	FreeFraction float64
	// Methods lists the structural methods to compare; nil means all.
	Methods []core.Method
	// IncludeNaive adds the cost-based naive baseline: join order from
	// the DP/GEQO planner (compile time included in the measurement),
	// no projection pushing. The paper drops it after Figure 2 because
	// its execution matches straightforward while compilation explodes.
	IncludeNaive bool
	// Workers fans the (repetition, method) measurements of each data
	// point across this many goroutines; values < 2 run sequentially.
	// Instance generation stays sequential with the per-repetition seed
	// derivation unchanged, and every measurement draws a private RNG
	// derived from (Seed, x, rep, method), so every randomized choice —
	// instances, planner tie-breaking, free-variable selection — and
	// therefore every width, cardinality, and timeout/success outcome is
	// identical for any worker count. Only wall-clock durations vary
	// with the schedule.
	//
	// Workers is also handed to the cost-based planner as its island
	// count (pgplanner.Options.Workers). One exception to the
	// schedule-independence above follows: with IncludeNaive (or in
	// CompileTimeScaling) on queries large enough for the genetic
	// search, the chosen join order depends deterministically on the
	// worker count, because Workers>1 splits the pool into that many
	// islands. Fixed (Seed, Workers) still reproduces bit-identical
	// results, and the default Workers=1 matches the serial planner
	// exactly, so the published figures are unchanged.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Reps <= 0 {
		c.Reps = 5
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.MaxRows == 0 {
		c.MaxRows = 5_000_000
	}
	if len(c.Methods) == 0 {
		c.Methods = core.Methods
	}
	return c
}

// Cell is one (x, method) measurement.
type Cell struct {
	Method string
	Sample stats.Sample
	// Width is the maximum plan width observed across repetitions —
	// the structural quantity behind the running times.
	Width int
	// Seeks and Extensions total the leapfrog index-seek and
	// variable-extension counts of this cell's executions; only the
	// worst-case-optimal strategy produces them, so they stay zero for
	// the plan-based methods.
	Seeks, Extensions int64
	// Failures counts failed repetitions by kind ("timeout", "rowcap",
	// "membudget", "panic", "canceled", "generator", "error"); nil when
	// every repetition succeeded. Failed repetitions also count into
	// Sample.Timeouts, as the paper's plots lump every abort together.
	Failures map[string]int
}

// fail annotates one aborted repetition on the cell.
func (c *Cell) fail(kind string) {
	if c.Failures == nil {
		c.Failures = make(map[string]int)
	}
	c.Failures[kind]++
	c.Sample.AddTimeout()
}

// annotation renders the cell's sample for the text report. The sample
// itself lumps every abort into "(N timeouts)" the way the paper's plots
// do; when a kind other than a plain timeout occurred, that note is
// replaced with the per-kind breakdown from Failures.
func (c *Cell) annotation() string {
	s := c.Sample.String()
	if len(c.Failures) == 0 || (len(c.Failures) == 1 && c.Failures["timeout"] > 0) {
		return s
	}
	kinds := make([]string, 0, len(c.Failures))
	for k := range c.Failures {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%d %s", c.Failures[k], k)
	}
	note := "(" + strings.Join(parts, ", ") + ")"
	if i := strings.LastIndex(s, "("); i >= 0 {
		return s[:i] + note
	}
	return s + " " + note
}

// failureKind classifies an execution error for Cell.Failures.
func failureKind(err error) string {
	switch {
	case errors.Is(err, engine.ErrTimeout):
		return "timeout"
	case errors.Is(err, engine.ErrCanceled):
		return "canceled"
	case errors.Is(err, engine.ErrRowLimit):
		return "rowcap"
	case errors.Is(err, engine.ErrMemLimit):
		return "membudget"
	case errors.Is(err, engine.ErrInternal):
		return "panic"
	default:
		return "error"
	}
}

// Row is one x-coordinate of a figure with all method measurements.
type Row struct {
	X     float64
	Cells []Cell
}

// Series is a reproduced figure: a titled table of rows.
type Series struct {
	Title  string
	XLabel string
	Rows   []Row
}

// Family names a structured graph family from Figure 1.
type Family string

// The structured query families of Figures 6–9.
const (
	FamilyAugmentedPath           Family = "augmented-path"
	FamilyLadder                  Family = "ladder"
	FamilyAugmentedLadder         Family = "augmented-ladder"
	FamilyAugmentedCircularLadder Family = "augmented-circular-ladder"
)

// BuildFamily constructs a family instance of the given order.
func BuildFamily(f Family, order int) (*graph.Graph, error) {
	switch f {
	case FamilyAugmentedPath:
		return graph.AugmentedPath(order), nil
	case FamilyLadder:
		return graph.Ladder(order), nil
	case FamilyAugmentedLadder:
		return graph.AugmentedLadder(order), nil
	case FamilyAugmentedCircularLadder:
		if order < 3 {
			return nil, fmt.Errorf("experiments: circular ladder needs order >= 3")
		}
		return graph.AugmentedCircularLadder(order), nil
	default:
		return nil, fmt.Errorf("experiments: unknown family %q", f)
	}
}

// randomClamped generates a random graph at the given density, clamping
// the edge count to the simple-graph maximum so scaled-down sweeps with
// high densities degrade to complete graphs instead of failing.
func randomClamped(order int, density float64, rng *rand.Rand) (*graph.Graph, error) {
	m := int(density*float64(order) + 0.5)
	if max := order * (order - 1) / 2; m > max {
		m = max
	}
	return graph.Random(order, m, rng)
}

// freeVars picks the query's target schema per the config.
func freeVars(g *graph.Graph, frac float64, rng *rand.Rand) []cq.Var {
	if frac <= 0 {
		return instance.BooleanFree(g)
	}
	return instance.ChooseFree(instance.EdgeVertices(g), frac, rng)
}

// execOptions translates a config into engine options.
func (c Config) execOptions() engine.Options {
	return engine.Options{Timeout: c.Timeout, MaxRows: c.MaxRows, MaxBytes: c.MaxBytes}
}

// outcome is one measurement: duration, plan width, executor counters,
// and the error (timeout / row cap) if the run was aborted.
type outcome struct {
	d                 time.Duration
	w                 int
	seeks, extensions int64
	err               error
}

// fold copies a result's counters into the outcome (no-op on nil).
func (o *outcome) fold(res *engine.Result) {
	if res == nil {
		return
	}
	o.seeks, o.extensions = res.Stats.Seeks, res.Stats.Extensions
}

// measure builds and executes one method on one query, returning the
// execution duration (plan construction included; it is negligible, as
// the paper notes for the subquery-based methods) and the plan width.
// For the execution strategies the width is their static surrogate's
// (core.BuildPlan): the full reducer's join tree has exactly that width,
// the streaming engine lowers that plan, and for the leapfrog join it is
// the quantity the multiway join beats on cyclic queries. The method runs
// as its strategy (resilience.Strategy) with no degradation ladder: a
// failed run is the cell's failure, as the paper reports it.
func measure(m core.Method, q *cq.Query, db cq.Database, rng *rand.Rand, cfg Config) outcome {
	s, err := jointree.Analyze(q) // structure is compile-time, like a server's: outside the timer
	if err != nil {
		return outcome{err: err}
	}
	start := time.Now()
	p, err := core.BuildPlan(m, q, rng)
	if err != nil {
		return outcome{err: err}
	}
	w := plan.Analyze(p).Width
	strategy, _ := resilience.Strategy(m, s, p)
	res, err := strategy.Run(context.Background(), db, cfg.execOptions())
	o := outcome{d: time.Since(start), w: w, err: err}
	o.fold(res)
	return o
}

// measureNaive runs the naive method end to end: cost-based planning
// (DP or GEQO) picks a join order, then the straightforward-shaped plan
// executes. The returned duration includes the planner's compile time,
// the quantity that dominates it.
func measureNaive(q *cq.Query, db cq.Database, rng *rand.Rand, cfg Config) outcome {
	start := time.Now()
	cm := pgplanner.NewCostModel(db)
	res, err := pgplanner.Plan(q, cm, rng, pgplanner.Options{Workers: cfg.Workers})
	if err != nil {
		return outcome{err: err}
	}
	p, err := core.StraightforwardOrder(q, res.Order)
	if err != nil {
		return outcome{err: err}
	}
	w := plan.Analyze(p).Width
	er, err := engine.Exec(p, db, cfg.execOptions())
	o := outcome{d: time.Since(start), w: w, err: err}
	o.fold(er)
	return o
}

// repSeed derives the instance-generation seed of one repetition — the
// derivation every sweep has always used, kept stable so fixed-seed
// figures reproduce across harness versions.
func repSeed(cfg Config, x float64, rep int) int64 {
	return cfg.Seed + int64(rep)*7919 + int64(x*1000)
}

// cellSeed derives the private measurement seed of one (rep, cell) task.
// Each task owns its RNG, so the schedule — sequential or worker pool —
// cannot perturb the random choices any measurement sees.
func cellSeed(cfg Config, x float64, rep, cell int) int64 {
	return cfg.Seed + int64(rep)*7919 + int64(cell+1)*1_000_003 + int64(x*1000)
}

// runPoint measures all methods over Reps instances supplied by gen.
//
// Instances are generated sequentially (rep order, per-rep seeds), then
// the Reps × methods measurement grid fans out over cfg.Workers
// goroutines pulling from a shared queue. Results are folded into the
// row in (rep, cell) order after all tasks finish, so the produced Row —
// and therefore every figure, table, and CSV — is identical for any
// worker count, including the sequential path.
func runPoint(x float64, cfg Config, gen func(rep int, rng *rand.Rand) (*cq.Query, cq.Database, error)) (Row, error) {
	ncells := len(cfg.Methods)
	if cfg.IncludeNaive {
		ncells++
	}
	row := Row{X: x, Cells: make([]Cell, ncells)}
	if cfg.IncludeNaive {
		row.Cells[0].Method = "naive"
	}
	offset := ncells - len(cfg.Methods)
	for i, m := range cfg.Methods {
		row.Cells[offset+i].Method = string(m)
	}

	// A failing generator spoils only its own repetition: the rep's
	// cells are annotated "generator" and the rest of the series runs.
	// Aborting the whole sweep here used to throw away every completed
	// point because one instance drew an empty graph.
	type inst struct {
		q  *cq.Query
		db cq.Database
	}
	insts := make([]inst, cfg.Reps)
	genErrs := make([]error, cfg.Reps)
	for rep := 0; rep < cfg.Reps; rep++ {
		rng := rand.New(rand.NewSource(repSeed(cfg, x, rep)))
		q, db, err := gen(rep, rng)
		if err != nil {
			genErrs[rep] = err
			continue
		}
		insts[rep] = inst{q: q, db: db}
	}

	// A panicking measurement is recovered at the task boundary, so one
	// pathological cell cannot take down the whole batch (or, with a
	// worker pool, the process).
	runCell := func(rep, ci int) (o outcome) {
		if genErrs[rep] != nil {
			return outcome{err: genErrs[rep]}
		}
		defer func() {
			if r := recover(); r != nil {
				o = outcome{err: fmt.Errorf("%w: experiment worker panic: %v", engine.ErrInternal, r)}
			}
		}()
		faultinject.Panic(faultinject.PanicExperimentWorker)
		rng := rand.New(rand.NewSource(cellSeed(cfg, x, rep, ci)))
		in := insts[rep]
		if cfg.IncludeNaive && ci == 0 {
			return measureNaive(in.q, in.db, rng, cfg)
		}
		return measure(cfg.Methods[ci-offset], in.q, in.db, rng, cfg)
	}

	results := make([]outcome, cfg.Reps*ncells)
	if cfg.Workers < 2 {
		for idx := range results {
			results[idx] = runCell(idx/ncells, idx%ncells)
		}
	} else {
		tasks := make(chan int)
		var wg sync.WaitGroup
		workers := cfg.Workers
		if workers > len(results) {
			workers = len(results)
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for idx := range tasks {
					results[idx] = runCell(idx/ncells, idx%ncells)
				}
			}()
		}
		for idx := range results {
			tasks <- idx
		}
		close(tasks)
		wg.Wait()
	}

	for rep := 0; rep < cfg.Reps; rep++ {
		for ci := 0; ci < ncells; ci++ {
			o := results[rep*ncells+ci]
			cell := &row.Cells[ci]
			if o.w > cell.Width {
				cell.Width = o.w
			}
			cell.Seeks += o.seeks
			cell.Extensions += o.extensions
			if o.err != nil {
				if genErrs[rep] != nil {
					cell.fail("generator")
				} else {
					cell.fail(failureKind(o.err))
				}
				continue
			}
			cell.Sample.Add(o.d)
		}
	}
	return row, nil
}

// DensityScaling reproduces Figure 3: random 3-COLOR queries of a fixed
// order with the density swept.
func DensityScaling(cfg Config, order int, densities []float64) (*Series, error) {
	cfg = cfg.withDefaults()
	db := instance.ColorDatabase(3)
	s := &Series{
		Title:  fmt.Sprintf("3-COLOR density scaling, order=%d, free=%.0f%%", order, cfg.FreeFraction*100),
		XLabel: "density",
	}
	for _, d := range densities {
		row, err := runPoint(d, cfg, func(rep int, rng *rand.Rand) (*cq.Query, cq.Database, error) {
			g, err := randomClamped(order, d, rng)
			if err != nil {
				return nil, nil, err
			}
			if g.M() == 0 {
				return nil, nil, fmt.Errorf("experiments: density %f yields no edges", d)
			}
			q, err := instance.ColorQuery(g, freeVars(g, cfg.FreeFraction, rng))
			if err != nil {
				return nil, nil, err
			}
			return q, db, nil
		})
		if err != nil {
			return nil, err
		}
		s.Rows = append(s.Rows, row)
	}
	return s, nil
}

// OrderScaling reproduces Figures 4 and 5: random 3-COLOR queries of a
// fixed density with the order swept.
func OrderScaling(cfg Config, density float64, orders []int) (*Series, error) {
	cfg = cfg.withDefaults()
	db := instance.ColorDatabase(3)
	s := &Series{
		Title:  fmt.Sprintf("3-COLOR order scaling, density=%.1f, free=%.0f%%", density, cfg.FreeFraction*100),
		XLabel: "order",
	}
	for _, n := range orders {
		row, err := runPoint(float64(n), cfg, func(rep int, rng *rand.Rand) (*cq.Query, cq.Database, error) {
			g, err := randomClamped(n, density, rng)
			if err != nil {
				return nil, nil, err
			}
			if g.M() == 0 {
				return nil, nil, fmt.Errorf("experiments: no edges at order %d", n)
			}
			q, err := instance.ColorQuery(g, freeVars(g, cfg.FreeFraction, rng))
			if err != nil {
				return nil, nil, err
			}
			return q, db, nil
		})
		if err != nil {
			return nil, err
		}
		s.Rows = append(s.Rows, row)
	}
	return s, nil
}

// StructuredScaling reproduces Figures 6–9: a structured family with the
// order swept.
func StructuredScaling(cfg Config, family Family, orders []int) (*Series, error) {
	cfg = cfg.withDefaults()
	db := instance.ColorDatabase(3)
	s := &Series{
		Title:  fmt.Sprintf("3-COLOR %s, free=%.0f%%", family, cfg.FreeFraction*100),
		XLabel: "order",
	}
	for _, n := range orders {
		g, err := BuildFamily(family, n)
		if err != nil {
			return nil, err
		}
		row, err := runPoint(float64(n), cfg, func(rep int, rng *rand.Rand) (*cq.Query, cq.Database, error) {
			q, err := instance.ColorQuery(g, freeVars(g, cfg.FreeFraction, rng))
			if err != nil {
				return nil, nil, err
			}
			return q, db, nil
		})
		if err != nil {
			return nil, err
		}
		s.Rows = append(s.Rows, row)
	}
	return s, nil
}

// CompileTimeScaling reproduces Figure 2: the planning ("compile") effort
// of the cost-based naive method against the straightforward method on
// random 3-SAT queries with 5 variables, density swept. Cells report the
// planner's wall-clock time; for the naive method that is the DP/GEQO
// search, for straightforward it is plan construction only.
func CompileTimeScaling(cfg Config, nvars int, densities []float64) (*Series, error) {
	cfg = cfg.withDefaults()
	s := &Series{
		Title:  fmt.Sprintf("3-SAT compile-time scaling, %d variables", nvars),
		XLabel: "density",
	}
	for _, d := range densities {
		m := int(d*float64(nvars) + 0.5)
		if m < 1 {
			m = 1
		}
		row := Row{X: d, Cells: []Cell{{Method: "naive(planner)"}, {Method: "straightforward"}}}
		for rep := 0; rep < cfg.Reps; rep++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(rep)*104729 + int64(d*1000)))
			sat, err := instance.RandomSAT(3, nvars, m, rng)
			if err != nil {
				return nil, err
			}
			vars := instance.SATVariablesInClauses(sat)
			q, db, err := instance.SATQuery(sat, vars[:1])
			if err != nil {
				return nil, err
			}
			cm := pgplanner.NewCostModel(db)

			start := time.Now()
			res, err := pgplanner.Plan(q, cm, rng, pgplanner.Options{Workers: cfg.Workers})
			if err != nil {
				return nil, err
			}
			row.Cells[0].Sample.Add(time.Since(start))
			if int(res.PlansExplored) > row.Cells[0].Width {
				// Reuse Width to carry plans explored for this figure.
				row.Cells[0].Width = int(res.PlansExplored)
			}

			start = time.Now()
			if _, err := core.Straightforward(q); err != nil {
				return nil, err
			}
			row.Cells[1].Sample.Add(time.Since(start))
		}
		s.Rows = append(s.Rows, row)
	}
	return s, nil
}

// SATScaling runs the Section 7 consistency check: the structural methods
// on random k-SAT queries with the density swept.
func SATScaling(cfg Config, k, nvars int, densities []float64) (*Series, error) {
	cfg = cfg.withDefaults()
	s := &Series{
		Title:  fmt.Sprintf("%d-SAT density scaling, %d variables, free=%.0f%%", k, nvars, cfg.FreeFraction*100),
		XLabel: "density",
	}
	for _, d := range densities {
		m := int(d*float64(nvars) + 0.5)
		if m < 1 {
			m = 1
		}
		row, err := runPoint(d, cfg, func(rep int, rng *rand.Rand) (*cq.Query, cq.Database, error) {
			sat, err := instance.RandomSAT(k, nvars, m, rng)
			if err != nil {
				return nil, nil, err
			}
			vars := instance.SATVariablesInClauses(sat)
			var free []cq.Var
			if cfg.FreeFraction > 0 {
				free = instance.ChooseFree(vars, cfg.FreeFraction, rng)
			} else {
				free = vars[:1]
			}
			q, db, err := instance.SATQuery(sat, free)
			if err != nil {
				return nil, nil, err
			}
			return q, db, nil
		})
		if err != nil {
			return nil, err
		}
		s.Rows = append(s.Rows, row)
	}
	return s, nil
}

// Report renders a series as an aligned text table, one row per x value
// and one column per method, cells showing the median duration (or
// "timeout") as the paper's logscale plots do.
func Report(s *Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", s.Title)
	header := []string{s.XLabel}
	if len(s.Rows) > 0 {
		for _, c := range s.Rows[0].Cells {
			header = append(header, c.Method)
		}
	}
	widths := make([]int, len(header))
	var lines [][]string
	lines = append(lines, header)
	for _, r := range s.Rows {
		line := []string{fmt.Sprintf("%g", r.X)}
		for i := range r.Cells {
			line = append(line, r.Cells[i].annotation())
		}
		lines = append(lines, line)
	}
	for _, line := range lines {
		for i, cell := range line {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, line := range lines {
		for i, cell := range line {
			fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// hasFailures reports whether any cell of the series recorded a failed
// repetition — the trigger for the CSV failure columns.
func hasFailures(s *Series) bool {
	for _, r := range s.Rows {
		for i := range r.Cells {
			if len(r.Cells[i].Failures) > 0 {
				return true
			}
		}
	}
	return false
}

// hasSeeks reports whether any cell recorded leapfrog seek work — the
// trigger for the CSV seek/extension columns, present only when the
// sweep ran the worst-case-optimal strategy.
func hasSeeks(s *Series) bool {
	for _, r := range s.Rows {
		for i := range r.Cells {
			if r.Cells[i].Seeks > 0 || r.Cells[i].Extensions > 0 {
				return true
			}
		}
	}
	return false
}

// CSV renders a series as comma-separated values: one row per x with a
// median-seconds column per method (empty for timeouts) — the format for
// external plotting tools. A sweep with any failed repetition gets
// <method>_aborted columns, and a sweep that ran the worst-case-optimal
// strategy gets <method>_seeks and <method>_extensions columns with its
// leapfrog work counters.
func CSV(s *Series) string {
	failures := hasFailures(s)
	seeks := hasSeeks(s)
	var b strings.Builder
	b.WriteString(s.XLabel)
	if len(s.Rows) > 0 {
		for _, c := range s.Rows[0].Cells {
			b.WriteString(",")
			b.WriteString(c.Method)
		}
		if failures {
			for _, c := range s.Rows[0].Cells {
				fmt.Fprintf(&b, ",%s_aborted", c.Method)
			}
		}
		if seeks {
			for _, c := range s.Rows[0].Cells {
				fmt.Fprintf(&b, ",%s_seeks,%s_extensions", c.Method, c.Method)
			}
		}
	}
	b.WriteString("\n")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%g", r.X)
		for i := range r.Cells {
			b.WriteString(",")
			if med, ok := r.Cells[i].Sample.Median(); ok {
				fmt.Fprintf(&b, "%g", med.Seconds())
			}
		}
		if failures {
			for i := range r.Cells {
				fmt.Fprintf(&b, ",%d", r.Cells[i].Sample.Timeouts)
			}
		}
		if seeks {
			for i := range r.Cells {
				fmt.Fprintf(&b, ",%d,%d", r.Cells[i].Seeks, r.Cells[i].Extensions)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
