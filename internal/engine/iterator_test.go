package engine

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"projpush/internal/cq"
	"projpush/internal/plan"
	"projpush/internal/relation"
)

func TestIteratorMatchesMaterializedOnCycle(t *testing.T) {
	db := edgeDB()
	for _, n := range []int{3, 4, 5, 6} {
		q := cycleQuery(n)
		p := straightforward(q)
		a, err := Exec(p, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := ExecIterator(p, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !a.Rel.Equal(b.Rel) {
			t.Fatalf("cycle %d: iterator engine disagrees with materializing engine", n)
		}
	}
}

func TestIteratorStats(t *testing.T) {
	q := cycleQuery(4)
	res, err := ExecIterator(straightforward(q), edgeDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Joins != 3 || res.Stats.Projections != 1 {
		t.Fatalf("operator counts: %+v", res.Stats)
	}
	if res.Stats.Elapsed <= 0 {
		t.Fatal("Elapsed not measured")
	}
}

func TestIteratorRowCap(t *testing.T) {
	q := cycleQuery(9)
	_, err := ExecIterator(straightforward(q), edgeDB(), Options{MaxRows: 5})
	if !errors.Is(err, ErrRowLimit) {
		t.Fatalf("err = %v, want ErrRowLimit", err)
	}
}

func TestIteratorTimeout(t *testing.T) {
	q := cycleQuery(13)
	_, err := ExecIterator(straightforward(q), edgeDB(), Options{Timeout: time.Nanosecond})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestIteratorUnknownRelation(t *testing.T) {
	p := &plan.Scan{Atom: cq.Atom{Rel: "nope", Args: []cq.Var{0, 1}}}
	if _, err := ExecIterator(p, edgeDB(), Options{}); err == nil {
		t.Fatal("expected error for unknown relation")
	}
}

func TestIteratorProjectionPushedPlans(t *testing.T) {
	// A plan with nested DISTINCT projections: both engines agree.
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
	a, err := Exec(pushed, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExecIterator(pushed, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Rel.Equal(b.Rel) {
		t.Fatal("engines disagree on projection-pushed plan")
	}
}

func TestIteratorCrossProduct(t *testing.T) {
	p := &plan.Project{
		Child: &plan.Join{Left: scan(0, 1), Right: scan(2, 3)},
		Cols:  []cq.Var{0, 2},
	}
	res, err := ExecIterator(p, edgeDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 9 {
		t.Fatalf("π{0,2} of cross product = %d rows, want 9", res.Rel.Len())
	}
}

func TestQuickIteratorEquivalence(t *testing.T) {
	db := edgeDB()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random chain query with random projections in between.
		n := 3 + rng.Intn(4)
		var cur plan.Node = scan(0, 1)
		for i := 1; i < n; i++ {
			cur = &plan.Join{Left: cur, Right: scan(i, i+1)}
			if rng.Intn(2) == 0 {
				// Keep the frontier and the start.
				cur = &plan.Project{Child: cur, Cols: []cq.Var{0, i + 1}}
			}
		}
		cur = &plan.Project{Child: cur, Cols: []cq.Var{0}}
		a, err := Exec(cur, db, Options{})
		if err != nil {
			return false
		}
		b, err := ExecIterator(cur, db, Options{})
		if err != nil {
			return false
		}
		return a.Rel.Equal(b.Rel)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIteratorLargeValues(t *testing.T) {
	// A triangle no 3-column key packs (the key rule gives each of three
	// values 21 bits; -1 and 2^22 do not fit): both engines dedup its
	// 3-column intermediates, and key the last join — on all three
	// variables of tri — by FNV hash with row verification.
	const big = 1 << 22
	db := edgeDB()
	edge := db["edge"].Clone()
	tri := relation.New([]relation.Attr{0, 1, 2})
	tri.Add(relation.Tuple{0, 1, 2})
	for _, c := range [][3]relation.Value{{-1, big, 2 * big}, {big, 2 * big, -1}, {2 * big, -1, big}} {
		edge.Add(relation.Tuple{c[0], c[1]})
		tri.Add(relation.Tuple{c[0], c[1], c[2]})
	}
	db["edge"], db["tri"] = edge, tri
	q := cycleQuery(3)
	q.Atoms = append(q.Atoms, cq.Atom{Rel: "tri", Args: []cq.Var{0, 1, 2}})
	p := straightforward(q)
	a, err := Exec(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExecIterator(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Rel.Equal(b.Rel) {
		t.Fatal("engines disagree on values no 3-column key packs")
	}
	want := []relation.Value{-1, 0, big, 2 * big}
	if a.Rel.Len() != len(want) {
		t.Fatalf("answer %v, want x0 in %v", a.Rel, want)
	}
	for _, v := range want {
		if !a.Rel.Contains(relation.Tuple{v}) {
			t.Fatalf("answer %v lacks x0=%d", a.Rel, v)
		}
	}
}
