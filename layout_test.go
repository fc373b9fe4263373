package projpush

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// facadeOnly names each internal package whose only non-test importer is
// the facade (projpush.go), with what needs it: the figure, section or CLI
// path that would lose something if it went. A package earns its place by
// an importer or by an entry here.
var facadeOnly = map[string]string{
	"internal/minibucket": "§7 future work, mini-bucket approximation: the facade's MiniBucket and BenchmarkAblationMiniBucket",
	"internal/minimize":   "§7 future work, Chandra–Merlin minimization: the facade's MinimizeQuery, ContainedIn and Equivalent, run by examples/minimization",
	"internal/sqlparse":   "Appendix A's dialect read back: the facade's ParseSQL, the round-trip oracle for what projpush -sql prints, and make fuzz",
}

// facadeAPI names each exported function of projpush.go that no example,
// example_test.go or command calls, with what needs it: the section or
// library use that would lose something if it went. A facade function
// earns its place by such a caller or by an entry here.
var facadeAPI = map[string]string{
	"ValidatePlan":              "§3's plan invariants for a hand-built, ParseSQL or Hybrid plan before Execute runs it",
	"DegradationLadder":         "the ladder ExecuteResilient degrades a library caller's plan down",
	"ExecuteResilient":          "a hand-built plan that blows a limit re-planned down the paper's safer methods, as projpushd does for a request",
	"ParseSQL":                  "Appendix A's dialect read back into a plan: internal/sqlparse's facadeOnly entry",
	"TreeDecompositionPlan":     "Theorem 1's constructive path: elimination order → tree decomposition → join-expression tree → plan",
	"WeightedWidth":             "§7's weighted attributes: the cost BucketEliminationWeighted minimizes",
	"BucketEliminationWeighted": "§7's weighted attributes: a variable order by byte width, not column count",
	"MiniBucket":                "§7's mini-bucket approximation: internal/minibucket's facadeOnly entry",
	"Hybrid":                    "§7's structural plus cost-based optimizer",
	"ReadDIMACSGraph":           "DIMACS .col coloring benchmarks as workloads for library callers",
	"ReadDIMACSCNF":             "DIMACS CNF formulas as the §7 SAT workloads for library callers",
}

// TestFacadeExportsEarnTheirPlace is the facade's guard against growing
// back: every exported function of projpush.go is called as projpush.X
// from examples/, example_test.go or cmd/, or is listed in facadeAPI with
// its reason, and the list names no function that has such a caller or
// no longer exists.
func TestFacadeExportsEarnTheirPlace(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "projpush.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	exported := make(map[string]bool)
	for _, d := range facade.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
			exported[fn.Name.Name] = true
		}
	}
	files := []string{"example_test.go"}
	for _, dir := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, _ fs.DirEntry, err error) error {
			if err == nil && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	called := make(map[string]bool)
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "projpush" {
					called[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	for name := range exported {
		reason, listed := facadeAPI[name]
		switch {
		case !called[name] && !listed:
			t.Errorf("projpush.%s: no caller in examples/, example_test.go or cmd/ and no reason in facadeAPI: call it, name what needs it, or delete it", name)
		case called[name] && listed:
			t.Errorf("projpush.%s has a caller, so its facadeAPI entry %q is stale", name, reason)
		}
	}
	for name := range facadeAPI {
		if !exported[name] {
			t.Errorf("facadeAPI names %s, which projpush.go does not export", name)
		}
	}
}

// moduleImports walks this module's non-test Go files. It returns the
// sorted cmd/ and internal/ directories — what the README and DESIGN.md
// inventories must name — and, for each module-local package, the files
// other than projpush.go that import it. A directory holding its own
// go.mod is another module and is skipped.
func moduleImports(t *testing.T) (dirs []string, importers map[string][]string) {
	t.Helper()
	importers = make(map[string][]string)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if dir := filepath.ToSlash(filepath.Dir(path)); strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "internal/") {
			dirs = append(dirs, dir)
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if pkg, ok := strings.CutPrefix(p, "projpush/"); ok && path != "projpush.go" {
				importers[pkg] = append(importers[pkg], path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(dirs)
	return slices.Compact(dirs), importers
}

// TestEveryInternalPackageEarnsItsPlace is the surface audit's guard: an
// internal package that only the facade imports is listed in facadeOnly
// with its reason, and the list names no package that has another
// importer or no longer exists.
func TestEveryInternalPackageEarnsItsPlace(t *testing.T) {
	dirs, importers := moduleImports(t)
	for _, dir := range dirs {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		reason, listed := facadeOnly[dir]
		switch {
		case len(importers[dir]) == 0 && !listed:
			t.Errorf("%s: no non-test importer besides projpush.go and no reason in facadeOnly: name what needs it, or delete it", dir)
		case len(importers[dir]) > 0 && listed:
			t.Errorf("%s: imported by %v, so its facadeOnly entry %q is stale", dir, importers[dir], reason)
		}
	}
	for dir := range facadeOnly {
		if _, ok := slices.BinarySearch(dirs, dir); !ok {
			t.Errorf("facadeOnly names %s, which is not a package of this module", dir)
		}
	}
}

// TestInventoriesNameEveryPackage checks README's architecture block and
// DESIGN.md's module table against the module: each names exactly its
// commands and internal packages.
func TestInventoriesNameEveryPackage(t *testing.T) {
	want, _ := moduleImports(t)
	check := func(doc string, got []string) {
		t.Helper()
		sort.Strings(got)
		got = slices.Compact(got)
		for _, dir := range want {
			if _, ok := slices.BinarySearch(got, dir); !ok {
				t.Errorf("%s does not name %s", doc, dir)
			}
		}
		for _, dir := range got {
			if _, ok := slices.BinarySearch(want, dir); !ok {
				t.Errorf("%s names %s, which is not a package of this module", doc, dir)
			}
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(readme), "\n## Architecture\n\n```\n")
	if !ok {
		t.Fatal("README.md has no code block under ## Architecture")
	}
	block, _, _ = strings.Cut(block, "```")
	// Top-level lines name a command; lines indented two spaces under
	// "internal/" name one package or several joined by " / ".
	var named []string
	for _, line := range strings.Split(block, "\n") {
		switch {
		case strings.HasPrefix(line, "cmd/"):
			named = append(named, strings.Fields(line)[0])
		case strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "   "):
			names, _, _ := strings.Cut(strings.TrimSpace(line), "  ")
			for _, name := range strings.Split(names, " / ") {
				named = append(named, "internal/"+name)
			}
		}
	}
	check("README.md's architecture block", named)

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(design), "\n## System inventory")
	if !ok {
		t.Fatal("DESIGN.md has no ## System inventory section")
	}
	table, _, _ = strings.Cut(table, "\n## ")
	named = nil
	row := regexp.MustCompile("(?m)^\\| `((?:cmd|internal)/[^`]+)` \\|")
	for _, m := range row.FindAllStringSubmatch(table, -1) {
		named = append(named, m[1])
	}
	check("DESIGN.md's module table", named)
}
