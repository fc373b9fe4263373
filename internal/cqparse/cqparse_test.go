package cqparse

import (
	"fmt"
	"strings"
	"testing"

	"projpush/internal/core"
	"projpush/internal/engine"
)

const triangleInput = `
# the 3-COLOR database
rel edge {
  0 1
  0 2
  1 0
  1 2
  2 0
  2 1
}

query ans(x) :- edge(x, y), edge(y, z), edge(z, x).
`

func TestParseTriangle(t *testing.T) {
	f, err := Parse(strings.NewReader(triangleInput))
	if err != nil {
		t.Fatal(err)
	}
	if f.DB["edge"].Len() != 6 || f.DB["edge"].Arity() != 2 {
		t.Fatalf("edge relation: %v", f.DB["edge"])
	}
	if len(f.Query.Atoms) != 3 || len(f.Query.Free) != 1 {
		t.Fatalf("query: %v", f.Query)
	}
	// Variable names mapped in order of first appearance (head first).
	if f.VarNames["x"] != 0 || f.VarNames["y"] != 1 || f.VarNames["z"] != 2 {
		t.Fatalf("var names: %v", f.VarNames)
	}
	// The query runs end to end: a triangle is 3-colorable.
	p, err := core.BucketElimination(f.Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Exec(p, f.DB, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 3 {
		t.Fatalf("triangle colors = %d, want 3", res.Rel.Len())
	}
}

func TestParseBooleanHead(t *testing.T) {
	in := `
rel r {
  1 2
}
query ans() :- r(a, b).
`
	f, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Query.Free) != 0 {
		t.Fatalf("Boolean head gave free vars %v", f.Query.Free)
	}
}

func TestParseMultilineQuery(t *testing.T) {
	in := `
rel edge {
  0 1
  1 0
}
query ans(a) :- edge(a, b),
                edge(b, c),
                edge(c, a).
`
	f, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Query.Atoms) != 3 {
		t.Fatalf("multiline query atoms: %v", f.Query.Atoms)
	}
}

func TestParseMultipleRelations(t *testing.T) {
	in := `
rel person {
  1
  2
}
rel likes {
  1 2
}
query ans(p) :- person(p), likes(p, q), person(q).
`
	f, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if f.DB["person"].Arity() != 1 || f.DB["likes"].Arity() != 2 {
		t.Fatal("arities wrong")
	}
	res, err := engine.EvalOracle(f.Query, f.DB)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || !res.Contains([]int32{1}) {
		t.Fatalf("result: %v", res)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"no query", "rel r {\n1\n}\n"},
		{"unclosed rel", "rel r {\n1 2\n"},
		{"empty rel", "rel r {\n}\nquery ans() :- r(a).\n"},
		{"tuple arity mismatch", "rel r {\n1 2\n1\n}\nquery ans() :- r(a, b).\n"},
		{"bad value", "rel r {\none two\n}\nquery ans() :- r(a, b).\n"},
		{"redefined relation", "rel r {\n1\n}\nrel r {\n2\n}\nquery ans() :- r(a).\n"},
		{"bad header", "rel r\n"},
		{"garbage line", "hello\n"},
		{"query missing turnstile", "rel r {\n1\n}\nquery ans(a) r(a).\n"},
		{"query missing period", "rel r {\n1\n}\nquery ans(a) :- r(a)\n"},
		{"malformed atom", "rel r {\n1\n}\nquery ans(a) :- r a.\n"},
		{"empty body", "rel r {\n1\n}\nquery ans() :- .\n"},
		{"two queries", "rel r {\n1\n}\nquery ans() :- r(a).\nquery ans() :- r(b).\n"},
		{"unknown relation in body", "rel r {\n1\n}\nquery ans() :- s(a).\n"},
		{"atom arity mismatch", "rel r {\n1\n}\nquery ans() :- r(a, b).\n"},
		{"repeated var in atom", "rel r {\n1 2\n}\nquery ans() :- r(a, a).\n"},
		{"empty argument", "rel r {\n1 2\n}\nquery ans() :- r(a, ).\n"},
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted invalid input", c.name)
		}
	}
}

func TestParseCommentsAndBlanks(t *testing.T) {
	in := `
# leading comment

rel edge {
  # inside a relation
  0 1

  1 0
}

# before the query
query ans(a) :- edge(a, b).
`
	f, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if f.DB["edge"].Len() != 2 {
		t.Fatal("comments broke tuple parsing")
	}
}

func TestWriteRoundTrip(t *testing.T) {
	f, err := Parse(strings.NewReader(triangleInput))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Write(&b, f.DB, f.Query); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("%v\nwritten:\n%s", err, b.String())
	}
	if len(back.Query.Atoms) != len(f.Query.Atoms) ||
		len(back.Query.Free) != len(f.Query.Free) {
		t.Fatalf("query shape changed:\n%s", b.String())
	}
	if back.DB["edge"].Len() != f.DB["edge"].Len() {
		t.Fatal("database changed through round trip")
	}
	// Semantics preserved.
	a, err := engine.EvalOracle(f.Query, f.DB)
	if err != nil {
		t.Fatal(err)
	}
	c, err := engine.EvalOracle(back.Query, back.DB)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != c.Len() {
		t.Fatal("round trip changed the answer")
	}
}

// chainClause is a one-line query clause over edge of at least size bytes.
func chainClause(size int) string {
	var b strings.Builder
	b.WriteString("query ans(x0) :- edge(x0, x1)")
	for i := 1; b.Len() < size; i++ {
		fmt.Fprintf(&b, ", edge(x%d, x%d)", i, i+1)
	}
	b.WriteString(".\n")
	return b.String()
}

// TestParseRequestAllocation holds a service request's parse to its size:
// a 1 KB query clause allocates under 16 KB (the scanner buffer starts at
// the default, not at 64 KiB), and a line past 64 KiB still parses.
func TestParseRequestAllocation(t *testing.T) {
	base, err := Parse(strings.NewReader(triangleInput))
	if err != nil {
		t.Fatal(err)
	}
	text := chainClause(1024)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ParseWith(strings.NewReader(text), base.DB); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 16<<10 {
		t.Fatalf("parsing a %d-byte query clause allocates %d B/op, want < 16 KiB", len(text), got)
	}
	long := chainClause(100 << 10)
	f, err := ParseWith(strings.NewReader(long), base.DB)
	if err != nil {
		t.Fatalf("a %d-byte line: %v", len(long), err)
	}
	if len(f.Query.Atoms) < 5000 {
		t.Fatalf("a %d-byte line parsed to %d atoms", len(long), len(f.Query.Atoms))
	}
}
