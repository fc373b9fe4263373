package cqparse

import (
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text to the query-file parser. Invariants:
// no panics, and accepted files always carry a query that validates
// against the parsed database (Parse checks this itself; re-assert to
// catch regressions in that wiring).
func FuzzParse(f *testing.F) {
	seeds := []string{
		triangleInput,
		"rel r {\n1 2\n}\nquery ans() :- r(a, b).",
		"rel r {\n}\n",
		"query ans(x) :- .",
		"rel r {\n1\n}\nquery ans(a) :- r(a).",
		"# only a comment",
		"rel r {\n-5 300\n}\nquery ans(a) :- r(a, b).",
		"rel edge {\n1 2\n2 1\n}\nquery ans(x, x) :- edge(x,y), edge(y,z), edge(z,x).",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		parsed, err := Parse(strings.NewReader(input))
		if err != nil {
			return
		}
		if parsed.Query == nil {
			t.Fatal("accepted file without query")
		}
		if err := parsed.Query.Validate(parsed.DB); err != nil {
			t.Fatalf("accepted file with invalid query: %v", err)
		}
	})
}
