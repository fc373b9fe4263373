// Package projpush is a structural query optimizer for project-join
// (conjunctive) queries, reproducing "Projection Pushing Revisited"
// (McMahan, Pan, Porter, Vardi; EDBT 2004).
//
// The library evaluates queries of the form π_{x1..xn}(R1 ⋈ ... ⋈ Rm)
// over in-memory databases, choosing the join/projection order with the
// paper's methods:
//
//   - Straightforward: left-deep joins in query order, one final
//     projection (the baseline a cost-based planner effectively produces).
//   - EarlyProjection: project each variable out right after its last
//     occurrence joins.
//   - Reordering: a greedy atom permutation that lets variables die as
//     early as possible, then early projection.
//   - BucketElimination: the constraint-satisfaction method under a
//     maximum-cardinality-search variable order; with an optimal order
//     its intermediate arity is treewidth(join graph)+1, the theoretical
//     optimum (Theorems 1 and 2 of the paper).
//
// The root package is a facade over the implementation packages in
// internal/: query construction, plan building, execution, SQL
// generation/parsing in the paper's dialect, and problem encoders
// (k-COLOR, k-SAT) for the paper's workloads.
//
// Quick start:
//
//	g := projpush.AugmentedPath(12)
//	res, err := projpush.Solve3Coloring(g, projpush.BucketElimination, nil)
//	// res.Nonempty() reports 3-colorability; res.Stats has arity/size
//	// instrumentation.
package projpush

import (
	"context"
	"io"
	"math/rand"
	"time"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/jointree"
	"projpush/internal/minibucket"
	"projpush/internal/minimize"
	"projpush/internal/pgplanner"
	"projpush/internal/plan"
	"projpush/internal/relation"
	"projpush/internal/resilience"
	"projpush/internal/sqlgen"
	"projpush/internal/sqlparse"
)

// Re-exported core types. These aliases are the public names of the
// library's data model; the internal packages carry the implementations.
type (
	// Query is a project-join query: atoms plus a target schema.
	Query = cq.Query
	// Atom binds a database relation's columns to query variables.
	Atom = cq.Atom
	// Var identifies a query variable / attribute.
	Var = cq.Var
	// Database maps relation names to relations.
	Database = cq.Database
	// Relation is an in-memory set-semantics relation.
	Relation = relation.Relation
	// Tuple is one row of a relation.
	Tuple = relation.Tuple
	// Value is a domain element.
	Value = relation.Value
	// Graph is a simple undirected graph (query workloads).
	Graph = graph.Graph
	// Plan is an executable project-join plan.
	Plan = plan.Node
	// Method names one of the paper's optimization methods.
	Method = core.Method
	// Result is an execution outcome with instrumentation.
	Result = engine.Result
	// ExecStats instruments one execution.
	ExecStats = engine.Stats
)

// The optimization methods, in the paper's presentation order.
const (
	Straightforward   = core.MethodStraightforward
	EarlyProjection   = core.MethodEarlyProjection
	Reordering        = core.MethodReordering
	BucketElimination = core.MethodBucketElimination
	// MethodYannakakis is the full-reducer execution strategy: Run and
	// Explain give it to engine.NewYannakakis, which semijoin-sweeps the
	// query's join tree and evaluates it bag by bag. Not listed in Methods
	// since it is not a plan shape.
	MethodYannakakis = core.MethodYannakakis
	// MethodStream is the pipelined streaming execution strategy: Run and
	// Explain give early projection's plan to engine.NewPipeline, which
	// executes it with fused projections, semijoin pushdown, and late
	// materialization. Not listed in Methods since it is not a plan shape.
	MethodStream = core.MethodStream
	// MethodWCOJ is the worst-case-optimal execution strategy: Run and
	// Explain give it to engine.NewWCOJ, one leapfrog multiway join over
	// sorted arena indexes, whose work is bounded by the AGM output bound
	// rather than any join tree's intermediate width. Not listed in
	// Methods since it is not a plan shape.
	MethodWCOJ = core.MethodWCOJ
)

// Methods lists all optimization methods.
var Methods = core.Methods

// NewRelation returns an empty relation over the attributes.
func NewRelation(attrs []Var) *Relation { return relation.New(attrs) }

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// AugmentedPath builds Figure 1a: a path of order n with one dangling
// edge per path vertex.
func AugmentedPath(n int) *Graph { return graph.AugmentedPath(n) }

// Ladder builds Figure 1b: a ladder with n rungs.
func Ladder(n int) *Graph { return graph.Ladder(n) }

// AugmentedLadder builds Figure 1c: a ladder with a dangling edge on
// every vertex.
func AugmentedLadder(n int) *Graph { return graph.AugmentedLadder(n) }

// AugmentedCircularLadder builds Figure 1d: an augmented ladder whose
// rails are closed into cycles.
func AugmentedCircularLadder(n int) *Graph { return graph.AugmentedCircularLadder(n) }

// ColorDatabase returns the k-COLOR database: one binary "edge" relation
// with all pairs of distinct colors.
func ColorDatabase(k int) Database { return instance.ColorDatabase(k) }

// ColorQuery translates a graph into the k-COLOR query with the given
// free variables (nil free plus BooleanFree for the paper's Boolean
// emulation).
func ColorQuery(g *Graph, free []Var) (*Query, error) { return instance.ColorQuery(g, free) }

// BooleanFree returns the paper's Boolean emulation target schema: the
// first vertex occurring in an edge.
func BooleanFree(g *Graph) []Var { return instance.BooleanFree(g) }

// SAT workload types, re-exported for the k-SAT encodings of Section 7.
type (
	// SAT is a CNF formula.
	SAT = instance.SAT
	// Clause is a disjunction of literals.
	Clause = instance.Clause
	// Lit is a signed variable.
	Lit = instance.Lit
)

// RandomSAT generates a random k-SAT formula with n variables and m
// clauses.
func RandomSAT(k, n, m int, rng *rand.Rand) (*SAT, error) { return instance.RandomSAT(k, n, m, rng) }

// SATQuery translates a CNF formula into a conjunctive query over the
// clause-pattern database; the query is nonempty iff the formula is
// satisfiable.
func SATQuery(s *SAT, free []Var) (*Query, Database, error) { return instance.SATQuery(s, free) }

// SATVariables returns the variables occurring in the formula's clauses.
func SATVariables(s *SAT) []Var { return instance.SATVariablesInClauses(s) }

// BuildPlan constructs a plan for the query under the method. rng drives
// the documented random tie-breaking; nil is deterministic.
func BuildPlan(m Method, q *Query, rng *rand.Rand) (Plan, error) {
	return core.BuildPlan(m, q, rng)
}

// ValidatePlan checks that a plan faithfully evaluates the query: scans
// match atoms, projections never drop live variables, and the root schema
// is the target schema.
func ValidatePlan(p Plan, q *Query) error { return plan.Validate(p, q) }

// PlanWidth returns the plan's width: the maximum intermediate arity, the
// paper's central cost measure.
func PlanWidth(p Plan) int { return plan.Analyze(p).Width }

// ExecOptions bounds an execution.
type ExecOptions = engine.Options

// Execution failure sentinels. Every executor reports resource aborts
// through these (test with errors.Is); ErrTimeout and ErrCanceled also
// match context.DeadlineExceeded and context.Canceled respectively, so
// engine failures compose with standard context plumbing.
var (
	// ErrTimeout: the ExecOptions.Timeout or a context deadline expired.
	ErrTimeout = engine.ErrTimeout
	// ErrCanceled: the context passed to Run or ExecuteResilient was
	// canceled.
	ErrCanceled = engine.ErrCanceled
	// ErrRowLimit: an intermediate result exceeded ExecOptions.MaxRows.
	ErrRowLimit = engine.ErrRowLimit
	// ErrMemLimit: materialized bytes exceeded ExecOptions.MaxBytes.
	ErrMemLimit = engine.ErrMemLimit
	// ErrOverWidth: the serving layer's width-aware admission control
	// (internal/server) rejected the query before executing it.
	// Terminal: retrying cannot shrink a plan.
	ErrOverWidth = engine.ErrOverWidth
	// ErrOverloaded: the request was shed under load (queue full or
	// queue wait expired). Retryable after backoff.
	ErrOverloaded = engine.ErrOverloaded
	// ErrInternal: a panic inside an executor, isolated at the run
	// boundary and surfaced as an error (with the stack in the message).
	ErrInternal = engine.ErrInternal
)

// Execute runs a plan over a database on the materializing plan walker
// (engine.NewWalker): a hand-built or ParseSQL plan, counted as the paper
// counts it.
func Execute(p Plan, db Database, opt ExecOptions) (*Result, error) {
	return engine.Exec(p, db, opt)
}

// Fallback is one rung of an ExecuteResilient degradation ladder.
type Fallback = engine.Fallback

// Attempt records one rung tried by ExecuteResilient (Stats.Attempts).
type Attempt = engine.Attempt

// DegradationLadder is the standard fallback ladder for a query: the
// Yannakakis full reducer on narrow queries (the worst-case-optimal
// multiway join on wide ones), then early projection, then bucket
// elimination, both on the pull pipeline — ordered from lowest peak memory
// to most robust. rng drives bucket elimination's tie-breaking; nil is
// deterministic.
func DegradationLadder(q *Query, rng *rand.Rand) []Fallback {
	s, err := jointree.Analyze(q)
	if err != nil {
		return resilience.PlanLadder(q, rng) // no structure, so no rung that reads one
	}
	return resilience.DegradationLadder(s, rng)
}

// ExecuteResilient runs a plan on the walker and, when it fails on a
// resource limit (ErrRowLimit, ErrMemLimit) or an internal fault
// (ErrInternal), retries down the fallback ladder instead of giving up;
// Stats.Attempts on the returned result records every rung tried, the
// plan's as "given". Timeouts and cancellations are not retried.
func ExecuteResilient(ctx context.Context, p Plan, fallbacks []Fallback, db Database, opt ExecOptions) (*Result, error) {
	given := engine.NewWalker(p)
	given.Name = "given"
	return engine.ExecResilientStrategy(ctx, given, fallbacks, db, opt)
}

// Run is the one-call path: build the method's plan and execute the
// method's strategy (resilience.Strategy) under ctx — the materializing
// plan walker for the four plan shapes, the full reducer for
// MethodYannakakis, the pipelined streaming executor for MethodStream,
// and the worst-case-optimal multiway join for MethodWCOJ (the reducer
// and the multiway join work from the query; their plan is only the
// static surrogate BuildPlan documents). A canceled ctx surfaces as
// ErrCanceled.
func Run(ctx context.Context, m Method, q *Query, db Database, opt ExecOptions, rng *rand.Rand) (*Result, error) {
	st, err := strategy(m, q, rng)
	if err != nil {
		return nil, err
	}
	return st.Run(ctx, db, opt)
}

// Explain renders what Run executes for the method: the plan walker's
// π…/⋈ operator tree for the four plan shapes, the full reducer's sweep
// tree, the streaming pipeline's operators, or the leapfrog variable
// order. With analyze true it executes and annotates the rendering with
// actual cardinalities and the run's memory and tuple totals.
func Explain(m Method, q *Query, db Database, opt ExecOptions, analyze bool, rng *rand.Rand) (string, error) {
	st, err := strategy(m, q, rng)
	if err != nil {
		return "", err
	}
	return st.Explain(db, opt, analyze)
}

// strategy builds the method's plan, analyzes the query, and returns the
// executor the method names.
func strategy(m Method, q *Query, rng *rand.Rand) (Fallback, error) {
	p, err := BuildPlan(m, q, rng)
	if err != nil {
		return Fallback{}, err
	}
	s, err := jointree.Analyze(q)
	if err != nil {
		return Fallback{}, err
	}
	st, _ := resilience.Strategy(m, s, p)
	return st, nil
}

// SQL renders a plan in the paper's SQL dialect (JOIN ... ON with
// SELECT DISTINCT subqueries).
func SQL(p Plan) (string, error) { return sqlgen.FromPlan(p) }

// ParseSQL parses the JOIN-form dialect back into a plan.
func ParseSQL(sql string) (Plan, error) { return sqlparse.Parse(sql) }

// OrderHeuristic names an elimination-order heuristic for
// tree-decomposition-based planning.
type OrderHeuristic = core.OrderHeuristic

// The elimination-order heuristics for TreeDecompositionPlan.
const (
	OrderMCS       = core.OrderMCS
	OrderMinFill   = core.OrderMinFill
	OrderMinDegree = core.OrderMinDegree
)

// TreeDecompositionPlan builds a plan through Theorem 1's constructive
// machinery: elimination order → tree decomposition → join-expression
// tree (Algorithms 2 and 3) → plan. An alternative realization of the
// same width guarantees as bucket elimination.
func TreeDecompositionPlan(q *Query, h OrderHeuristic, rng *rand.Rand) (Plan, error) {
	return core.TreeDecompositionPlan(q, h, rng)
}

// Weights assigns byte widths to attributes (Section 7's weighted-
// attribute extension).
type Weights = plan.Weights

// WeightedWidth is the maximum weighted intermediate arity of a plan.
func WeightedWidth(p Plan, w Weights) int { return plan.WeightedWidth(p, w) }

// BucketEliminationWeighted plans with a variable order that minimizes
// weighted intermediate arity instead of column count.
func BucketEliminationWeighted(q *Query, w Weights) (Plan, error) {
	return core.BucketEliminationWeighted(q, w)
}

// MiniBucketResult is the outcome of an approximate mini-bucket run.
type MiniBucketResult = minibucket.Result

// MiniBucket runs mini-bucket elimination with the given arity bound
// under the MCS order: the result over-approximates the exact answer, and
// an empty result proves the exact answer empty.
func MiniBucket(q *Query, db Database, bound int, rng *rand.Rand) (*MiniBucketResult, error) {
	order, err := core.VarOrder(q, core.OrderMCS, rng)
	if err != nil {
		return nil, err
	}
	return minibucket.Evaluate(q, db, order, bound)
}

// HybridChoice is the hybrid optimizer's outcome: the chosen plan, the
// structural candidate that produced it, and the winning cost estimate.
type HybridChoice = core.HybridChoice

// Hybrid combines structural and cost-based optimization (the paper's
// Section 7 item): structural rewrites generate a portfolio of
// projection-pushed plans; a System-R cost model built from db's
// statistics picks the cheapest.
func Hybrid(q *Query, db Database, rng *rand.Rand) (*HybridChoice, error) {
	return core.Hybrid(q, pgplanner.NewCostModel(db), rng)
}

// StructuralReport collects the query's structural measures: treewidth
// bounds, heuristic induced widths, hypertree-width estimate, and
// per-method plan widths.
type StructuralReport = core.StructuralReport

// AnalyzeStructure computes the structural report for a query — the
// "EXPLAIN" of structural optimization, computed from schemas alone.
func AnalyzeStructure(q *Query) (*StructuralReport, error) {
	return core.AnalyzeStructure(q)
}

// HypertreeWidth estimates the query's generalized hypertree width
// (greedy atom covers over an MCS tree decomposition).
func HypertreeWidth(q *Query) (int, error) {
	s, err := jointree.Analyze(q)
	if err != nil {
		return 0, err
	}
	_, w := s.Guards()
	return w, nil
}

// ReadDIMACSGraph parses a DIMACS .col graph.
func ReadDIMACSGraph(r io.Reader) (*Graph, error) { return instance.ReadDIMACSGraph(r) }

// ReadDIMACSCNF parses a DIMACS CNF formula.
func ReadDIMACSCNF(r io.Reader) (*SAT, error) { return instance.ReadDIMACSCNF(r) }

// ContainedIn decides conjunctive-query containment q1 ⊆ q2 via the
// Chandra–Merlin canonical database, evaluated with bucket elimination.
func ContainedIn(q1, q2 *Query) (bool, error) {
	return minimize.ContainedIn(q1, q2, engine.Options{})
}

// EquivalentQueries decides mutual containment.
func EquivalentQueries(q1, q2 *Query) (bool, error) {
	return minimize.Equivalent(q1, q2, engine.Options{})
}

// MinimizeQuery returns an equivalent subquery with a minimal number of
// atoms (the Chandra–Merlin core).
func MinimizeQuery(q *Query) (*Query, error) {
	return minimize.Minimize(q, engine.Options{})
}

// Solve3Coloring decides 3-colorability of g with the given method: it
// builds the Boolean 3-COLOR query, plans it, and executes it with a
// 30-second safety timeout.
func Solve3Coloring(g *Graph, m Method, rng *rand.Rand) (*Result, error) {
	q, err := ColorQuery(g, BooleanFree(g))
	if err != nil {
		return nil, err
	}
	return Run(context.Background(), m, q, ColorDatabase(3), ExecOptions{Timeout: 30 * time.Second}, rng)
}
