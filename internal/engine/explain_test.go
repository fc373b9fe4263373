package engine

import (
	"strings"
	"testing"

	"projpush/internal/cq"
	"projpush/internal/plan"
)

func TestExplainStructureOnly(t *testing.T) {
	q := cycleQuery(3)
	p := straightforward(q)
	out, err := NewWalker(p).Explain(edgeDB(), Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, marker := range []string{"π{x0}", "⋈", "edge(x0,x1)", "arity=3"} {
		if !strings.Contains(out, marker) {
			t.Fatalf("explain missing %q:\n%s", marker, out)
		}
	}
	if strings.Contains(out, "rows=") {
		t.Fatalf("non-analyze explain must not show rows:\n%s", out)
	}
}

func TestExplainAnalyze(t *testing.T) {
	q := cycleQuery(3)
	p := straightforward(q)
	out, err := NewWalker(p).Explain(edgeDB(), Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "rows=3") { // final projection: 3 colors
		t.Fatalf("explain analyze missing final cardinality:\n%s", out)
	}
	if !strings.Contains(out, "rows=6") { // each scan: 6 tuples
		t.Fatalf("explain analyze missing scan cardinality:\n%s", out)
	}
	// Indentation encodes tree depth: the deepest scans are indented.
	if !strings.Contains(out, "      edge(") {
		t.Fatalf("explain lacks indentation:\n%s", out)
	}
}

func TestExplainAnalyzePropagatesErrors(t *testing.T) {
	p := &plan.Scan{Atom: cq.Atom{Rel: "nope", Args: []cq.Var{0, 1}}}
	if _, err := NewWalker(p).Explain(edgeDB(), Options{}, true); err == nil {
		t.Fatal("expected error for unknown relation")
	}
}
