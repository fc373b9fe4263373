// Command projpush runs one project-join query end to end: it generates a
// 3-COLOR instance (random or one of the paper's structured families),
// builds the plan for a chosen optimization method, executes it over the
// six-tuple edge database, and reports the answer together with the
// structural statistics the paper's analysis is about (plan width, maximum
// intermediate cardinality, tuples materialized).
//
// With -sql it prints the SQL each method's plan renders to instead, in
// the dialect the paper ships to PostgreSQL; -family pentagon is the
// paper's Appendix A example, with its exact atom listing.
//
//	projpush -family random -order 20 -density 3.0 -method bucketelimination
//	projpush -family augladder -order 10 -all
//	projpush -family ladder -order 4 -method earlyprojection -sql
//	projpush -family pentagon -all -sql      # Appendix A: naive first, then every method
//	projpush -query q.cq -method naive -sql  # the naive WHERE-style query alone
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/cqparse"
	"projpush/internal/engine"
	"projpush/internal/faultinject"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/jointree"
	"projpush/internal/pgplanner"
	"projpush/internal/plan"
	"projpush/internal/resilience"
	"projpush/internal/server/client"
	"projpush/internal/sqlgen"
)

func main() {
	var (
		family    = flag.String("family", "random", "graph family: random, augpath, ladder, augladder, augcircladder, cycle, complete, pentagon")
		order     = flag.Int("order", 15, "graph order (vertices for random, family parameter otherwise)")
		density   = flag.Float64("density", 3.0, "edge density m/n (random family only)")
		method    = flag.String("method", string(core.MethodBucketElimination), "optimization method: straightforward, earlyprojection, reordering, bucketelimination, yannakakis, stream, wcoj, hybrid; with -sql also naive")
		all       = flag.Bool("all", false, "run every method and compare")
		free      = flag.Float64("free", 0, "fraction of vertices kept free (0 = Boolean query)")
		seed      = flag.Int64("seed", 1, "random seed")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-run execution timeout")
		maxRows   = flag.Int("maxrows", 10_000_000, "intermediate row cap (0 = unlimited)")
		membudget = flag.Int("membudget", 0, "materialized-bytes budget in MiB (0 = unlimited)")
		resilient = flag.Bool("resilient", false, "on row-cap/memory/internal failures, degrade instead of reporting the error: to yannakakis (elimination width <= 3) or else wcoj, then early projection, then bucket elimination (yannakakis, stream and wcoj go straight to early projection)")
		showSQL   = flag.Bool("sql", false, "print the generated SQL instead of executing (with -all the naive query first)")
		explain   = flag.Bool("explain", false, "print the plan tree with actual cardinalities instead of the summary line (with -connect: the server's route line and plan, not executed)")
		analyze   = flag.Bool("analyze", false, "print the structural report (treewidth bounds, induced widths, plan widths) and exit")
		colors    = flag.Int("colors", 3, "number of colors (k-COLOR)")
		graphFile = flag.String("graphfile", "", "load a DIMACS .col graph instead of generating one")
		cnfFile   = flag.String("cnffile", "", "load a DIMACS CNF formula and solve it as a project-join query")
		queryFile = flag.String("query", "", "load a query+database file (Datalog-style, see internal/cqparse)")
		emitQuery = flag.Bool("emitquery", false, "print the generated instance as a query file (the -query format) and exit")
		connect   = flag.String("connect", "", "send the instance to a projpushd server at this address instead of executing locally")
		faults    = flag.String("faults", "", "fault-injection spec for robustness drills, e.g. 'join.panic=0.01,kernel.latency=500us:0.1'; points: "+strings.Join(faultinject.PointNames(), ", "))
		faultseed = flag.Int64("faultseed", 1, "seed for the fault-injection coin flips")
	)
	flag.Parse()

	if *faults != "" {
		if err := faultinject.Enable(*faults, *faultseed); err != nil {
			fatal(fmt.Errorf("-faults: %w", err))
		}
		defer faultinject.Disable()
	}

	rng := rand.New(rand.NewSource(*seed))

	opt := engine.Options{Timeout: *timeout, MaxRows: *maxRows, MaxBytes: int64(*membudget) << 20}

	var (
		q   *cq.Query
		db  cq.Database
		g   *graph.Graph
		err error
	)
	switch {
	case *queryFile != "":
		f, ferr := os.Open(*queryFile)
		if ferr != nil {
			fatal(ferr)
		}
		parsed, ferr := cqparse.Parse(f)
		f.Close()
		if ferr != nil {
			fatal(ferr)
		}
		q, db = parsed.Query, parsed.DB
		fmt.Fprintf(os.Stderr, "instance: %s, %d atoms, %d variables, free=%v\n",
			*queryFile, len(q.Atoms), q.NumVars(), q.Free)
	case *cnfFile != "":
		f, ferr := os.Open(*cnfFile)
		if ferr != nil {
			fatal(ferr)
		}
		sat, ferr := instance.ReadDIMACSCNF(f)
		f.Close()
		if ferr != nil {
			fatal(ferr)
		}
		vars := instance.SATVariablesInClauses(sat)
		var freeVars []cq.Var
		if *free > 0 {
			freeVars = instance.ChooseFree(vars, *free, rng)
		} else {
			freeVars = vars[:1]
		}
		q, db, err = instance.SATQuery(sat, freeVars)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "instance: CNF %s, %d clauses, %d variables, free=%v\n",
			*cnfFile, len(sat.Clauses), sat.NumVars, q.Free)
	case *family == "pentagon" && *graphFile == "":
		q, db = pentagon(), instance.ColorDatabase(*colors)
		fmt.Fprintf(os.Stderr, "instance: Appendix A pentagon, %d atoms, %d variables, free=%v\n", len(q.Atoms), q.NumVars(), q.Free)
	default:
		if *graphFile != "" {
			f, ferr := os.Open(*graphFile)
			if ferr != nil {
				fatal(ferr)
			}
			g, err = instance.ReadDIMACSGraph(f)
			f.Close()
		} else {
			g, err = buildGraph(*family, *order, *density, rng)
		}
		if err != nil {
			fatal(err)
		}
		var freeVars []cq.Var
		if *free > 0 {
			freeVars = instance.ChooseFree(instance.EdgeVertices(g), *free, rng)
		} else {
			freeVars = instance.BooleanFree(g)
		}
		q, err = instance.ColorQuery(g, freeVars)
		if err != nil {
			fatal(err)
		}
		db = instance.ColorDatabase(*colors)
		fmt.Fprintf(os.Stderr, "instance: %v, %d atoms, %d variables, free=%v\n", g, len(q.Atoms), q.NumVars(), q.Free)
	}

	if *emitQuery {
		if err := cqparse.Write(os.Stdout, db, q); err != nil {
			fatal(err)
		}
		return
	}
	if *connect != "" {
		runRemote(os.Stdout, *connect, q, db, core.Method(*method), *timeout, *explain)
		return
	}
	if *analyze {
		rep, err := core.AnalyzeStructure(q)
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep)
		return
	}

	methods := []core.Method{core.Method(*method)}
	if *all {
		methods = core.Methods
	}
	if *showSQL && (*all || *method == "naive") {
		sql, err := sqlgen.Naive(q)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("-- naive\n%s\n\n", sql)
		if !*all {
			return
		}
	}
	structure, err := jointree.Analyze(q)
	if err != nil {
		fatal(err)
	}
	for _, m := range methods {
		var p plan.Node
		if m == "hybrid" {
			choice, err := core.Hybrid(q, pgplanner.NewCostModel(db), rng)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("hybrid picked %s (estimated cost %.0f, rows %.0f)\n",
				choice.Candidate, choice.Estimate.Cost, choice.Estimate.Rows)
			p = choice.Plan
		} else {
			var err error
			p, err = core.BuildPlan(m, q, rng)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", m, err))
			}
		}
		if *showSQL {
			sql, err := sqlgen.FromPlan(p)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("-- %s\n%s\n\n", m, sql)
			continue
		}
		if *explain {
			strategy, _ := resilience.Strategy(m, structure, p)
			out, err := strategy.Explain(db, opt, true)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("-- %s\n%s\n", m, out)
			continue
		}
		st := plan.Analyze(p)
		res, err := execute(m, p, structure, db, opt, *resilient, rng)
		if err != nil {
			fmt.Printf("%-18s width=%-3d ERROR: %v\n", m, st.Width, err)
			continue
		}
		answer := "EMPTY"
		if res.Nonempty() {
			answer = fmt.Sprintf("NONEMPTY (%d tuples)", res.Rel.Len())
		}
		fmt.Printf("%-18s width=%-3d time=%-12v maxrows=%-8d tuples=%-9d joins=%-3d %s\n",
			m, st.Width, res.Stats.Elapsed.Round(time.Microsecond),
			res.Stats.MaxRows, res.Stats.Tuples, res.Stats.Joins, answer)
	}
}

// execute runs one method's strategy (resilience.Strategy: the yannakakis
// method executes the full reducer, the stream method the pipelined
// executor, the wcoj method the worst-case-optimal multiway join, any
// other the plan p), degrading down the strategy's ladder when resil is
// set: a row-cap, memory-budget, or internal failure retries with safer
// methods, logging the abandoned rungs to stderr so the summary line stays
// comparable.
func execute(m core.Method, p plan.Node, s *jointree.Structure, db cq.Database, opt engine.Options, resil bool, rng *rand.Rand) (*engine.Result, error) {
	strategy, ladder := resilience.Strategy(m, s, p)
	if !resil {
		return strategy.Run(context.Background(), db, opt)
	}
	res, err := engine.ExecResilientStrategy(context.Background(), strategy, ladder(rng), db, opt)
	if res != nil && len(res.Stats.Attempts) > 1 {
		for _, a := range res.Stats.Attempts {
			if a.Err != "" {
				fmt.Fprintf(os.Stderr, "degraded: %s failed: %s\n", a.Method, a.Err)
			}
		}
	}
	return res, err
}

// runRemote ships the instance (database and query) to a projpushd
// server and writes its verdict to out: the request carries the full
// cqparse rendering, so the server answers over these relations even when
// its resident database differs. With explain it asks for the explain op
// instead and writes the server's explain, which opens with the route it
// took and why.
func runRemote(out io.Writer, addr string, q *cq.Query, db cq.Database, m core.Method, timeout time.Duration, explain bool) {
	var buf bytes.Buffer
	if err := cqparse.Write(&buf, db, q); err != nil {
		fatal(err)
	}
	c := client.New(client.Options{Addr: addr, AttemptTimeout: timeout})
	defer c.Close()
	do := c.Query
	if explain {
		do = c.Explain
	}
	resp, err := do(context.Background(), buf.String(), string(m))
	if err != nil {
		if resp != nil && resp.Verdict != nil {
			v := resp.Verdict
			fmt.Fprintf(os.Stderr, "verdict: plan width %d, elimination width %d, AGM log2 %.1f (thresholds: width %d, AGM log2 %.1f)\n",
				v.PlanWidth, v.ElimWidth, v.AGMLog2, v.MaxWidth, v.MaxAGMLog2)
		}
		fatal(fmt.Errorf("%s after %d attempt(s): %w", addr, c.Attempts(), err))
	}
	if explain {
		fmt.Fprint(out, resp.Explain)
		return
	}
	answer := "EMPTY"
	if resp.Answer != nil && resp.Answer.Nonempty {
		answer = fmt.Sprintf("NONEMPTY (%d tuples)", resp.Answer.Rows)
	}
	status := string(resp.Status)
	if resp.Stats != nil {
		fmt.Fprintf(out, "%-18s status=%-9s time=%-12v maxrows=%-8d tuples=%-9d joins=%-3d %s\n",
			m, status, time.Duration(resp.Stats.ElapsedUS)*time.Microsecond,
			resp.Stats.MaxRows, resp.Stats.Tuples, resp.Stats.Joins, answer)
		for _, a := range resp.Stats.Attempts {
			if a.Err != "" {
				fmt.Fprintf(os.Stderr, "degraded: %s failed: %s\n", a.Method, a.Err)
			}
		}
	} else {
		fmt.Fprintf(out, "%-18s status=%-9s %s\n", m, status, answer)
	}
}

// pentagon is the query of the paper's Appendix A: the 5-cycle's
// 3-COLOR query with vertex 1 free, atoms in the appendix's order.
func pentagon() *cq.Query {
	return &cq.Query{
		Atoms: []cq.Atom{
			{Rel: "edge", Args: []cq.Var{1, 2}},
			{Rel: "edge", Args: []cq.Var{1, 5}},
			{Rel: "edge", Args: []cq.Var{4, 5}},
			{Rel: "edge", Args: []cq.Var{3, 4}},
			{Rel: "edge", Args: []cq.Var{2, 3}},
		},
		Free: []cq.Var{1},
	}
}

func buildGraph(family string, order int, density float64, rng *rand.Rand) (*graph.Graph, error) {
	switch family {
	case "random":
		return graph.RandomDensity(order, density, rng)
	case "augpath":
		return graph.AugmentedPath(order), nil
	case "ladder":
		return graph.Ladder(order), nil
	case "augladder":
		return graph.AugmentedLadder(order), nil
	case "augcircladder":
		return graph.AugmentedCircularLadder(order), nil
	case "cycle":
		return graph.Cycle(order), nil
	case "complete":
		return graph.Complete(order), nil
	default:
		return nil, fmt.Errorf("unknown family %q", family)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "projpush:", err)
	os.Exit(1)
}
