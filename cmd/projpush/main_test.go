package main

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"projpush"
	"projpush/internal/core"
	"projpush/internal/cqparse"
	"projpush/internal/engine"
	"projpush/internal/experiments"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/jointree"
	"projpush/internal/resilience"
	"projpush/internal/server"
	"projpush/internal/server/client"
)

// counts is what tells the materializing walker from the pull pipeline on
// one plan: the largest intermediate and the bytes and tuples charged.
type counts struct {
	maxRows                     int
	tuples, materialized, bytes int64
	peak                        int64
}

func countsOf(st *engine.Stats) counts {
	return counts{st.MaxRows, st.Tuples, st.MaterializedTuples, st.Bytes, st.PeakBytes}
}

func wireCounts(st *server.RunStats) counts {
	return counts{st.MaxRows, st.Tuples, st.Materialized, st.Bytes, st.PeakBytes}
}

// TestNamedMethodsKeepTheWalker pins the boundary that keeps the paper's
// comparison from collapsing: whoever names a plan method — the facade's
// Run, this command's execute, a harness cell, a server request — gets
// the materializing walker's counts, the quantities Figures 6–9 plot (on
// Figure 9 at order 4 the straightforward plan's last join materializes
// 55 296 rows; the pull pipeline, projection fused, holds a few hundred
// bytes and would show no blow-up at all). Only a plan the server's own
// router picked, for a request that named nothing, runs on the pipeline —
// whatever the server's configuration: the executor is a function of the
// request alone.
func TestNamedMethodsKeepTheWalker(t *testing.T) {
	g := graph.AugmentedCircularLadder(4)
	drawn, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	db := instance.ColorDatabase(3)
	var text bytes.Buffer
	if err := cqparse.WriteQuery(&text, drawn); err != nil {
		t.Fatal(err)
	}
	// The text form renumbers variables: every surface gets the query the
	// server reads.
	file, err := cqparse.ParseWith(strings.NewReader(text.String()), db)
	if err != nil {
		t.Fatal(err)
	}
	q := file.Query
	structure, err := jointree.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}

	serve := func(cfg server.Config) func(text, method string) counts {
		t.Helper()
		cfg.DB = db
		c := client.New(client.Options{Addr: startServer(t, cfg)})
		return func(text, method string) counts {
			t.Helper()
			resp, err := c.Query(context.Background(), text, method)
			if err != nil || resp.Stats == nil {
				t.Fatalf("server request (method %q): %v", method, err)
			}
			return wireCounts(resp.Stats)
		}
	}
	named := serve(server.Config{})

	for _, m := range []core.Method{core.MethodStraightforward, core.MethodEarlyProjection, core.MethodBucketElimination} {
		p, err := core.BuildPlan(m, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		walker, err := engine.Exec(p, db, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pipeline, err := engine.ExecIterator(p, db, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := countsOf(&walker.Stats)
		if got := countsOf(&pipeline.Stats); got.maxRows >= want.maxRows || got.bytes >= want.bytes {
			t.Fatalf("%s: the pipeline's counts %+v do not undercut the walker's %+v: nothing to tell apart", m, got, want)
		}
		if m == core.MethodStraightforward && (want.maxRows != 55296 || pipeline.Stats.PeakBytes > 4096) {
			t.Errorf("straightforward: walker materializes %d rows, pipeline peaks at %d bytes; want 55296 rows against under 4 KiB",
				want.maxRows, pipeline.Stats.PeakBytes)
		}

		if res, err := projpush.Run(context.Background(), m, q, db, projpush.ExecOptions{}, nil); err != nil || countsOf(&res.Stats) != want {
			t.Errorf("%s: projpush.Run reports %+v (%v), the walker %+v", m, countsOf(&res.Stats), err, want)
		}
		if res, err := execute(m, p, structure, db, engine.Options{}, false, nil); err != nil || countsOf(&res.Stats) != want {
			t.Errorf("%s: execute reports %+v (%v), the walker %+v", m, countsOf(&res.Stats), err, want)
		}
		if got := named(text.String(), string(m)); got != want {
			t.Errorf("%s: a server request naming it reports %+v, the walker %+v", m, got, want)
		}
		// A harness cell shows its executor through a row cap one under the
		// walker's largest intermediate: the pipeline stays far below it.
		cfg := experiments.Config{Methods: []core.Method{m}, Reps: 1, MaxRows: want.maxRows - 1}
		s, err := experiments.StructuredScaling(cfg, experiments.FamilyAugmentedCircularLadder, []int{4})
		if err != nil {
			t.Fatal(err)
		}
		if cell := s.Rows[0].Cells[0]; cell.Failures["rowcap"] != 1 {
			t.Errorf("%s: harness cell under a row cap of %d failed with %v, the walker materializes %d rows",
				m, cfg.MaxRows, cell.Failures, want.maxRows)
		}
	}

	// Methodless, this text goes to the leapfrog join (its free variable
	// is cheaper than its widest bag), and with 20 % of its vertices free
	// it lands on the default tier (elimination width 4 or more): the
	// narrowest bucket-elimination plan on the pipeline — also as a fleet
	// member, the configuration the fleet drills and the end-to-end
	// benchmark run.
	leapfrog, err := engine.NewWCOJ(structure, 0).Run(context.Background(), db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var text20 bytes.Buffer
	drawn20, err := instance.ColorQuery(g, instance.ChooseFree(instance.EdgeVertices(g), 0.2, rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	if err := cqparse.WriteQuery(&text20, drawn20); err != nil {
		t.Fatal(err)
	}
	file20, err := cqparse.ParseWith(strings.NewReader(text20.String()), db)
	if err != nil {
		t.Fatal(err)
	}
	mcs20, err := core.BuildPlan(core.MethodBucketElimination, file20.Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	chosen20, err := core.NarrowestBucketElimination(file20.Query, core.NewCandidate(mcs20, core.OrderMCS))
	if err != nil {
		t.Fatal(err)
	}
	bare, err := engine.ExecIterator(chosen20.Plan, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]server.Config{"routed": {}, "routed, fleet worker": {WorkerID: "w0"}} {
		ask := serve(cfg)
		if got := ask(text.String(), ""); got != countsOf(&leapfrog.Stats) {
			t.Errorf("%s: the Boolean text reports %+v, the leapfrog join %+v", name, got, countsOf(&leapfrog.Stats))
		}
		if got := ask(text20.String(), ""); got != countsOf(&bare.Stats) {
			t.Errorf("%s: the default tier reports %+v, the bare pipeline %+v", name, got, countsOf(&bare.Stats))
		}
	}
	mcs, err := core.BuildPlan(core.MethodBucketElimination, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	inHand := core.NewCandidate(mcs, core.OrderMCS)
	// The default tier's plan, the narrowest bucket-elimination one, runs
	// as a route runs it: on the pipeline, not the walker.
	chosen, err := core.NarrowestBucketElimination(q, inHand)
	if err != nil {
		t.Fatal(err)
	}
	walker, err := engine.Exec(chosen.Plan, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pipeline, err := engine.ExecIterator(chosen.Plan, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pipeline.Stats.PeakBytes >= walker.Stats.PeakBytes {
		t.Fatalf("pipeline peak %d, walker %d: nothing to tell apart", pipeline.Stats.PeakBytes, walker.Stats.PeakBytes)
	}
	strategy, _ := resilience.Routed(core.MethodBucketElimination, structure, chosen.Plan)
	res, err := strategy.Run(context.Background(), db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := countsOf(&res.Stats); got != countsOf(&pipeline.Stats) {
		t.Errorf("the default tier reports %+v, the pipeline %+v", got, countsOf(&pipeline.Stats))
	}
}

// startServer serves cfg on a loopback port until the test ends and
// returns its address.
func startServer(t *testing.T, cfg server.Config) string {
	t.Helper()
	s := server.New(cfg)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Serve()
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		<-done
	})
	return s.Addr().String()
}

// TestRemoteExplainShowsTheRoute: -explain with -connect asks the server
// for its explain, which opens with the route the request took and why,
// where without -explain the command prints the run's summary line.
func TestRemoteExplainShowsTheRoute(t *testing.T) {
	db := instance.ColorDatabase(3)
	g := graph.AugmentedCircularLadder(5)
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, server.Config{DB: db})
	for _, tc := range []struct {
		method  core.Method
		explain bool
		want    string
	}{
		{"", true, "route: wcoj (free_vars_under_bag)  elim_width="},
		{core.MethodStream, true, "route: stream (named)  elim_width="},
		{"", false, "                   status=ok "},
	} {
		var out bytes.Buffer
		runRemote(&out, addr, q, db, tc.method, 5*time.Second, tc.explain)
		if !strings.HasPrefix(out.String(), tc.want) {
			t.Errorf("method %q, explain %v: printed\n%s\nwant it to open with %q", tc.method, tc.explain, out.String(), tc.want)
		}
	}
}
