package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/plan"
	"projpush/internal/relation"
)

// TestStreamBuildPaths checks that EXPLAIN ANALYZE names the build path
// of each join, and that resident and adopted builds answer like the
// walker and still count their rows in Stats.MaxRows. A 3-COLOR cycle
// builds over the stored edge relation (resident); a join whose right
// input is a DISTINCT takes its seen-set (adopted), and so does one over
// a scan the pushdown phase reduced.
func TestStreamBuildPaths(t *testing.T) {
	chainQ, chainDB := selectiveChain(4, 200, 150, 7)
	chain, err := core.BuildPlan(core.MethodEarlyProjection, chainQ, nil)
	if err != nil {
		t.Fatal(err)
	}
	distinctBuild := &plan.Project{Cols: []cq.Var{0}, Child: &plan.Join{
		Left:  scan(0, 1),
		Right: &plan.Project{Cols: []cq.Var{1}, Child: &plan.Join{Left: scan(1, 2), Right: scan(2, 3)}},
	}}
	for _, c := range []struct {
		name    string
		p       plan.Node
		db      cq.Database
		want    string
		maxRows int
	}{
		{"cycle", straightforward(cycleQuery(4)), edgeDB(), "build=6 resident", 6},
		{"distinct", distinctBuild, edgeDB(), "build=3 adopted", 3},
		{"reduced", chain, chainDB, "build=4 adopted", 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, err := NewPipeline(c.p).Explain(c.db, Options{}, true)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, c.want) {
				t.Fatalf("EXPLAIN ANALYZE missing %q:\n%s", c.want, out)
			}
			want, err := Exec(c.p, c.db, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := ExecStreamContext(context.Background(), c.p, c.db, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Rel.Equal(want.Rel) {
				t.Fatalf("stream answer differs from Exec (%d vs %d rows)", got.Rel.Len(), want.Rel.Len())
			}
			if got.Stats.MaxRows != c.maxRows {
				t.Fatalf("Stats.MaxRows = %d, want %d", got.Stats.MaxRows, c.maxRows)
			}
		})
	}
}

// TestStreamBuildChargesProbeTable pins the charge of a copied build's
// probe table: once the build side ends, the table is held at its full
// size (rows and probe structure) until the probe side is exhausted. The
// budget here fits the answer and the build's rows and keys but not its
// probe structure, so the run fails.
func TestStreamBuildChargesProbeTable(t *testing.T) {
	r := relation.New([]relation.Attr{0, 1})
	s := relation.New([]relation.Attr{0, 1})
	for i := relation.Value(0); i < 3000; i++ {
		r.Add(relation.Tuple{i, i % 1000})
	}
	for j := relation.Value(0); j < 1000; j++ {
		s.Add(relation.Tuple{j, 0})
		s.Add(relation.Tuple{j, 1})
	}
	db := cq.Database{"r": r, "s": s}
	// π{x0,x1}(r(x0,x1) ⋈ s(x1,x2)): the build reads s projected onto x1,
	// so it copies its 1000 rows.
	p := &plan.Project{Cols: []cq.Var{0, 1}, Child: &plan.Join{
		Left:  &plan.Scan{Atom: cq.Atom{Rel: "r", Args: []cq.Var{0, 1}}},
		Right: &plan.Scan{Atom: cq.Atom{Rel: "s", Args: []cq.Var{1, 2}}},
	}}
	free, err := ExecIterator(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The same build by hand: its rows, then its frozen probe table.
	table := relation.NewStreamTable(1, []int{0})
	for j := relation.Value(0); j < 1000; j++ {
		table.Insert(relation.Tuple{j})
	}
	table.Freeze()
	// The answer is complete while the table is still held.
	budget := free.Rel.Bytes() + table.Bytes() - 1
	if free.Stats.PeakBytes <= budget {
		t.Fatalf("peak %d does not hold the answer and the full table (%d bytes)", free.Stats.PeakBytes, budget+1)
	}
	if _, err := ExecIterator(p, db, Options{MaxBytes: budget}); !errors.Is(err, ErrMemLimit) {
		t.Fatalf("err = %v, want ErrMemLimit", err)
	}
}

// TestStreamResidentIndexRace runs concurrent stream-route requests over
// a stored arena whose column index no one has built, so their resident
// builds race its first build. Run under -race; every answer must match
// the walker's on a separate copy of the database.
func TestStreamResidentIndexRace(t *testing.T) {
	p := straightforward(cycleQuery(5))
	want, err := Exec(p, edgeDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := edgeDB()
	const n = 8
	results := make([]*Result, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = ExecStreamContext(context.Background(), p, db, Options{})
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !results[i].Rel.Equal(want.Rel) {
			t.Fatalf("request %d: answer differs from Exec", i)
		}
	}
	if db["edge"].ResidentIndexBytes() == 0 {
		t.Fatal("no resident column index was built")
	}
}
