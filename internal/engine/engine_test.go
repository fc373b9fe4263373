package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"projpush/internal/cq"
	"projpush/internal/jointree"
	"projpush/internal/plan"
	"projpush/internal/relation"
)

// edgeDB returns the paper's 3-COLOR database: one binary relation with
// the six pairs of distinct colors.
func edgeDB() cq.Database {
	e := relation.New([]relation.Attr{0, 1})
	for i := relation.Value(0); i < 3; i++ {
		for j := relation.Value(0); j < 3; j++ {
			if i != j {
				e.Add(relation.Tuple{i, j})
			}
		}
	}
	return cq.Database{"edge": e}
}

func scan(vars ...cq.Var) plan.Node {
	return &plan.Scan{Atom: cq.Atom{Rel: "edge", Args: vars}}
}

func straightforward(q *cq.Query) plan.Node {
	nodes := make([]plan.Node, len(q.Atoms))
	for i, a := range q.Atoms {
		nodes[i] = &plan.Scan{Atom: a}
	}
	return &plan.Project{Child: plan.LeftDeepJoin(nodes), Cols: q.Free}
}

func cycleQuery(n int) *cq.Query {
	q := &cq.Query{Free: []cq.Var{0}}
	for i := 0; i < n; i++ {
		q.Atoms = append(q.Atoms, cq.Atom{Rel: "edge", Args: []cq.Var{i, (i + 1) % n}})
	}
	return q
}

func TestExecTriangleColorable(t *testing.T) {
	q := cycleQuery(3)
	res, err := Exec(straightforward(q), edgeDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Nonempty() {
		t.Fatal("triangle is 3-colorable; result must be nonempty")
	}
	// π_{v0} over a satisfiable symmetric instance yields all 3 colors.
	if res.Rel.Len() != 3 {
		t.Fatalf("result len = %d, want 3", res.Rel.Len())
	}
}

func TestExecOddWheelNotColorable(t *testing.T) {
	// K4 is 3-colorable; build K4 plus an edge forced monochromatic?
	// Simpler known non-3-colorable graph: K4 is colorable, W5 (odd wheel)
	// is not. Wheel: hub 0, cycle 1..5.
	q := &cq.Query{Free: []cq.Var{0}}
	for i := 1; i <= 5; i++ {
		q.Atoms = append(q.Atoms, cq.Atom{Rel: "edge", Args: []cq.Var{0, i}})
		next := i%5 + 1
		q.Atoms = append(q.Atoms, cq.Atom{Rel: "edge", Args: []cq.Var{i, next}})
	}
	res, err := Exec(straightforward(q), edgeDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nonempty() {
		t.Fatal("odd wheel W5 is not 3-colorable; result must be empty")
	}
}

func TestExecStats(t *testing.T) {
	q := cycleQuery(4)
	res, err := Exec(straightforward(q), edgeDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Joins != 3 || s.Projections != 1 {
		t.Fatalf("operator counts: %+v", s)
	}
	if s.MaxArity != 4 {
		t.Fatalf("MaxArity = %d, want 4 (straightforward keeps all columns)", s.MaxArity)
	}
	if s.MaxRows == 0 || s.Tuples == 0 || s.Work == 0 {
		t.Fatalf("instrumentation not collected: %+v", s)
	}
	if s.Elapsed <= 0 {
		t.Fatal("Elapsed not measured")
	}
}

func TestExecRowCap(t *testing.T) {
	q := cycleQuery(8)
	_, err := Exec(straightforward(q), edgeDB(), Options{MaxRows: 10})
	if !errors.Is(err, ErrRowLimit) {
		t.Fatalf("err = %v, want ErrRowLimit", err)
	}
}

func TestExecTimeout(t *testing.T) {
	q := cycleQuery(14)
	_, err := Exec(straightforward(q), edgeDB(), Options{Timeout: time.Nanosecond})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestExecUnknownRelation(t *testing.T) {
	p := &plan.Scan{Atom: cq.Atom{Rel: "nope", Args: []cq.Var{0, 1}}}
	if _, err := Exec(p, edgeDB(), Options{}); err == nil {
		t.Fatal("expected error for unknown relation")
	}
}

func TestExecArityMismatch(t *testing.T) {
	p := &plan.Scan{Atom: cq.Atom{Rel: "edge", Args: []cq.Var{0, 1, 2}}}
	if _, err := Exec(p, edgeDB(), Options{}); err == nil {
		t.Fatal("expected error for arity mismatch")
	}
}

func TestExecProjectionPushedPlanSameAnswer(t *testing.T) {
	// Path of length 3: early-projection plan vs straightforward.
	q := &cq.Query{
		Atoms: []cq.Atom{
			{Rel: "edge", Args: []cq.Var{0, 1}},
			{Rel: "edge", Args: []cq.Var{1, 2}},
			{Rel: "edge", Args: []cq.Var{2, 3}},
		},
		Free: []cq.Var{0},
	}
	pushed := &plan.Project{
		Child: &plan.Join{
			Left: &plan.Project{
				Child: &plan.Join{Left: scan(0, 1), Right: scan(1, 2)},
				Cols:  []cq.Var{0, 2},
			},
			Right: scan(2, 3),
		},
		Cols: []cq.Var{0},
	}
	db := edgeDB()
	a, err := Exec(straightforward(q), db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Exec(pushed, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Rel.Equal(b.Rel) {
		t.Fatal("projection-pushed plan disagrees with straightforward plan")
	}
	if b.Stats.MaxArity >= a.Stats.MaxArity {
		t.Fatalf("pushed MaxArity %d not below straightforward %d",
			b.Stats.MaxArity, a.Stats.MaxArity)
	}
}

func TestOracleMatchesExec(t *testing.T) {
	db := edgeDB()
	for _, n := range []int{3, 4, 5, 6, 7} {
		q := cycleQuery(n)
		res, err := Exec(straightforward(q), db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		or, err := EvalOracle(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Rel.Equal(or) {
			t.Fatalf("cycle %d: executor %v != oracle %v", n, res.Rel, or)
		}
		// Odd cycles are 3-colorable (n>=3 odd cycles are colorable with 3
		// colors); all cycles except nothing... every cycle with n>=3 is
		// 3-colorable, so results must be nonempty.
		if res.Rel.Empty() {
			t.Fatalf("cycle %d should be 3-colorable", n)
		}
	}
}

func TestOracleNonBoolean(t *testing.T) {
	q := cycleQuery(3)
	q.Free = []cq.Var{0, 1}
	or, err := EvalOracle(q, edgeDB())
	if err != nil {
		t.Fatal(err)
	}
	// Triangle colorings: 6 total; projected to two vertices: all 6
	// ordered distinct pairs.
	if or.Len() != 6 {
		t.Fatalf("oracle len = %d, want 6", or.Len())
	}
	res, err := Exec(straightforward(q), edgeDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rel.Equal(or) {
		t.Fatal("non-Boolean: executor disagrees with oracle")
	}
}

func TestOracleTrulyBooleanQuery(t *testing.T) {
	q := cycleQuery(3)
	q.Free = nil
	or, err := EvalOracle(q, edgeDB())
	if err != nil {
		t.Fatal(err)
	}
	if or.Arity() != 0 || or.Len() != 1 {
		t.Fatalf("nullary oracle result: arity=%d len=%d, want 0,1", or.Arity(), or.Len())
	}
	ok, err := OracleNonempty(q, edgeDB())
	if err != nil || !ok {
		t.Fatalf("OracleNonempty = %v, %v", ok, err)
	}
}

func TestOracleInvalidQuery(t *testing.T) {
	q := &cq.Query{Atoms: []cq.Atom{{Rel: "nope", Args: []cq.Var{0, 1}}}}
	if _, err := EvalOracle(q, edgeDB()); err == nil {
		t.Fatal("expected validation error")
	}
}

// TestStructuralFailureKeepsResult: a plan or query that cannot be bound —
// unknown relation, arity mismatch, a projection (or free variable) that
// names a column its input does not have — fails every entry point the
// same way: through the governor's exit, so the Result is non-nil (the
// contract Fallback.Run and the ladder rely on), the error is set and
// Elapsed is stamped.
func TestStructuralFailureKeepsResult(t *testing.T) {
	ctx, db := context.Background(), edgeDB()
	atoms := map[string][]cq.Atom{
		"unknown relation": {{Rel: "nope", Args: []cq.Var{0, 1}}},
		"arity mismatch":   {{Rel: "edge", Args: []cq.Var{0, 1, 2}}},
		"missing column":   {{Rel: "edge", Args: []cq.Var{0, 1}}},
	}
	for name, as := range atoms {
		q := &cq.Query{Atoms: as, Free: []cq.Var{0, 7}}
		p := &plan.Project{Child: &plan.Scan{Atom: as[0]}, Cols: q.Free}
		entries := map[string]func() (*Result, error){
			"NewWalker":             func() (*Result, error) { return NewWalker(p).Run(ctx, db, Options{}) },
			"NewPipeline":           func() (*Result, error) { return NewPipeline(p).Run(ctx, db, Options{}) },
			"Exec":                  func() (*Result, error) { return Exec(p, db, Options{}) },
			"ExecContext":           func() (*Result, error) { return ExecContext(ctx, p, db, Options{}) },
			"ExecIterator":          func() (*Result, error) { return ExecIterator(p, db, Options{}) },
			"ExecStreamContext":     func() (*Result, error) { return ExecStreamContext(ctx, p, db, Options{}) },
			"ExecYannakakisContext": func() (*Result, error) { return ExecYannakakisContext(ctx, q, db, Options{}) },
			"ExecWCOJContext":       func() (*Result, error) { return ExecWCOJContext(ctx, q, db, Options{}) },
		}
		// Analysis refuses the missing column itself (the shims report it),
		// so the constructors that take a structure get the binding failures.
		s, err := jointree.Analyze(&cq.Query{Atoms: as, Free: q.Free[:1]})
		if err != nil {
			t.Fatal(err)
		}
		if name != "missing column" {
			entries["NewYannakakis"] = func() (*Result, error) { return NewYannakakis(s).Run(ctx, db, Options{}) }
			entries["NewWCOJ"] = func() (*Result, error) { return NewWCOJ(s, 0).Run(ctx, db, Options{}) }
		}
		for entry, run := range entries {
			res, err := run()
			if err == nil || res == nil {
				t.Errorf("%s on %s: result %v, err %v; want a non-nil Result and an error", entry, name, res, err)
				continue
			}
			if res.Rel != nil || res.Stats.Elapsed <= 0 {
				t.Errorf("%s on %s: failed run carries rel %v, elapsed %v", entry, name, res.Rel, res.Stats.Elapsed)
			}
		}
	}
}
