package experiments

import (
	"go/build"
	"strings"
	"testing"
)

// TestHarnessImportsNoServingPackage keeps the paper's harness on the
// engine: it measures plan construction and execution, so it must not
// reach the server, its client or the fleet.
func TestHarnessImportsNoServingPackage(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range pkg.Imports {
		if strings.HasPrefix(imp, "projpush/internal/server") || imp == "projpush/internal/cluster" {
			t.Errorf("harness imports serving package %s", imp)
		}
	}
}
