package cq

import (
	"testing"

	"projpush/internal/relation"
)

func edgeDB() Database {
	e := relation.New([]relation.Attr{0, 1})
	for i := relation.Value(0); i < 3; i++ {
		for j := relation.Value(0); j < 3; j++ {
			if i != j {
				e.Add(relation.Tuple{i, j})
			}
		}
	}
	return Database{"edge": e}
}

func triangle() *Query {
	return &Query{
		Atoms: []Atom{
			{Rel: "edge", Args: []Var{0, 1}},
			{Rel: "edge", Args: []Var{1, 2}},
			{Rel: "edge", Args: []Var{2, 0}},
		},
		Free: []Var{0},
	}
}

func TestVarsOrderOfFirstOccurrence(t *testing.T) {
	q := &Query{
		Atoms: []Atom{
			{Rel: "edge", Args: []Var{3, 1}},
			{Rel: "edge", Args: []Var{1, 0}},
		},
		Free: []Var{0},
	}
	vars := q.Vars()
	want := []Var{3, 1, 0}
	if len(vars) != len(want) {
		t.Fatalf("Vars = %v, want %v", vars, want)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", vars, want)
		}
	}
	if q.NumVars() != 3 {
		t.Fatalf("NumVars = %d, want 3", q.NumVars())
	}
}

func TestIsBooleanAndIsFree(t *testing.T) {
	q := triangle()
	if !q.IsBoolean() {
		t.Fatal("single-free-var query must report Boolean")
	}
	if !q.IsFree(0) || q.IsFree(1) {
		t.Fatal("IsFree wrong")
	}
	q.Free = []Var{0, 1}
	if q.IsBoolean() {
		t.Fatal("two-free-var query must not report Boolean")
	}
}

func TestFirstLastOccurrence(t *testing.T) {
	q := triangle()
	first := q.FirstOccurrence()
	last := q.LastOccurrence()
	if first[2] != 1 || last[2] != 2 {
		t.Fatalf("first/last of x2 = %d/%d, want 1/2", first[2], last[2])
	}
	// Free variable x0 is pinned to one past the end.
	if last[0] != len(q.Atoms) {
		t.Fatalf("last of free x0 = %d, want %d", last[0], len(q.Atoms))
	}
}

func TestValidate(t *testing.T) {
	db := edgeDB()
	if err := triangle().Validate(db); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}

	cases := []struct {
		name string
		q    *Query
	}{
		{"no atoms", &Query{Free: []Var{0}}},
		{"unknown relation", &Query{Atoms: []Atom{{Rel: "nope", Args: []Var{0, 1}}}}},
		{"arity mismatch", &Query{Atoms: []Atom{{Rel: "edge", Args: []Var{0, 1, 2}}}}},
		{"repeated variable", &Query{Atoms: []Atom{{Rel: "edge", Args: []Var{0, 0}}}}},
		{"free var not in atoms", &Query{
			Atoms: []Atom{{Rel: "edge", Args: []Var{0, 1}}},
			Free:  []Var{9},
		}},
		{"repeated free variable", &Query{
			Atoms: []Atom{{Rel: "edge", Args: []Var{0, 1}}},
			Free:  []Var{0, 0},
		}},
	}
	for _, c := range cases {
		if err := c.q.Validate(db); err == nil {
			t.Errorf("%s: Validate accepted invalid query", c.name)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	q := triangle()
	c := q.Clone()
	c.Atoms[0].Args[0] = 99
	c.Free[0] = 98
	if q.Atoms[0].Args[0] == 99 || q.Free[0] == 98 {
		t.Fatal("Clone shares storage")
	}
}

func TestPermute(t *testing.T) {
	q := triangle()
	p, err := q.Permute([]int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Atoms[0].Args[0] != 2 || p.Atoms[1].Args[0] != 0 {
		t.Fatalf("permuted atoms wrong: %v", p.Atoms)
	}
	if _, err := q.Permute([]int{0, 0, 1}); err == nil {
		t.Fatal("Permute accepted non-permutation")
	}
	if _, err := q.Permute([]int{0}); err == nil {
		t.Fatal("Permute accepted wrong length")
	}
}

func TestString(t *testing.T) {
	q := triangle()
	got := q.String()
	want := "π{x0}(edge(x0,x1) ⋈ edge(x1,x2) ⋈ edge(x2,x0))"
	if got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestCanonicalDatabase(t *testing.T) {
	q := triangle()
	db, frozen := CanonicalDatabase(q)
	e := db["edge"]
	if e == nil {
		t.Fatal("canonical database missing edge relation")
	}
	if e.Len() != 3 {
		t.Fatalf("canonical edge has %d tuples, want 3", e.Len())
	}
	// Frozen values are distinct.
	seen := map[relation.Value]bool{}
	for _, v := range frozen {
		if seen[v] {
			t.Fatal("frozen values collide")
		}
		seen[v] = true
	}
	// Each atom appears as a tuple.
	for _, a := range q.Atoms {
		tup := relation.Tuple{frozen[a.Args[0]], frozen[a.Args[1]]}
		if !e.Contains(tup) {
			t.Fatalf("canonical database missing tuple for %v", a)
		}
	}
}

func TestCanonicalDatabaseSharedRelation(t *testing.T) {
	// Two atoms over the same relation collapse into one canonical
	// relation with both tuples.
	q := &Query{
		Atoms: []Atom{
			{Rel: "r", Args: []Var{0, 1}},
			{Rel: "r", Args: []Var{1, 2}},
		},
		Free: []Var{0},
	}
	db, _ := CanonicalDatabase(q)
	if db["r"].Len() != 2 {
		t.Fatalf("canonical r has %d tuples, want 2", db["r"].Len())
	}
}

func TestAtomString(t *testing.T) {
	a := Atom{Rel: "edge", Args: []Var{4, 7}}
	if a.String() != "edge(x4,x7)" {
		t.Fatalf("Atom.String = %q", a.String())
	}
	if !a.HasVar(4) || a.HasVar(5) {
		t.Fatal("HasVar wrong")
	}
}

func TestNormalize(t *testing.T) {
	q := &Query{
		Atoms: []Atom{
			{Rel: "edge", Args: []Var{7, 3}},
			{Rel: "edge", Args: []Var{3, 9}},
		},
		Free: []Var{9},
	}
	n, m := Normalize(q)
	if n.Atoms[0].Args[0] != 0 || n.Atoms[0].Args[1] != 1 ||
		n.Atoms[1].Args[0] != 1 || n.Atoms[1].Args[1] != 2 {
		t.Fatalf("normalized atoms: %v", n.Atoms)
	}
	if n.Free[0] != 2 {
		t.Fatalf("normalized free: %v", n.Free)
	}
	if m[7] != 0 || m[3] != 1 || m[9] != 2 {
		t.Fatalf("mapping: %v", m)
	}
	// Original untouched.
	if q.Atoms[0].Args[0] != 7 {
		t.Fatal("Normalize mutated input")
	}
}

func TestFingerprintRenamingInvariance(t *testing.T) {
	a := &Query{
		Atoms: []Atom{{Rel: "edge", Args: []Var{5, 8}}, {Rel: "edge", Args: []Var{8, 2}}},
		Free:  []Var{5},
	}
	b := &Query{
		Atoms: []Atom{{Rel: "edge", Args: []Var{0, 1}}, {Rel: "edge", Args: []Var{1, 2}}},
		Free:  []Var{0},
	}
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatalf("renamed queries fingerprint differently:\n%s\n%s",
			Fingerprint(a), Fingerprint(b))
	}
	c := b.Clone()
	c.Free = []Var{1}
	if Fingerprint(b) == Fingerprint(c) {
		t.Fatal("different target schemas must fingerprint differently")
	}
	d := b.Clone()
	d.Atoms[0], d.Atoms[1] = d.Atoms[1], d.Atoms[0]
	if Fingerprint(b) == Fingerprint(d) {
		t.Fatal("atom order is part of the fingerprint")
	}
}
