package server

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/cqparse"
	"projpush/internal/engine"
	"projpush/internal/faultinject"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/relation"
)

// queryText renders a graph's Boolean 3-COLOR query as a query-only
// request (the server holds the edge database).
func queryText(t *testing.T, g *graph.Graph) string {
	t.Helper()
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	return textOf(t, q)
}

// startServer listens on a free port and serves until the test ends.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s := New(cfg)
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
	return s, s.Addr().String()
}

// roundTrip sends one request on a fresh connection.
func roundTrip(t *testing.T, addr string, req *Request) *Response {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if err := WriteFrame(c, req); err != nil {
		t.Fatalf("send: %v", err)
	}
	var resp Response
	if err := ReadFrame(c, &resp); err != nil {
		t.Fatalf("receive: %v", err)
	}
	return &resp
}

func TestQueryAnswerMatchesOracle(t *testing.T) {
	g := graph.AugmentedPath(5)
	in := colorQuery(t, g)
	var log bytes.Buffer
	_, addr := startServer(t, Config{DB: in.db, Log: &log})

	resp := roundTrip(t, addr, &Request{Op: "query", Query: queryText(t, g)})
	if resp.Status != StatusOK {
		t.Fatalf("status = %s (%s), want ok", resp.Status, resp.Error)
	}
	oracle, err := engine.EvalOracle(in.q, in.db)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Answer == nil || resp.Answer.Rows != oracle.Len() {
		t.Fatalf("answer rows = %+v, oracle has %d", resp.Answer, oracle.Len())
	}
	// The answer is a set in the executor's row order: sort a copy.
	got := slices.Clone(resp.Answer.Tuples)
	slices.SortFunc(got, slices.Compare[[]int32])
	want := make([][]int32, oracle.Len())
	for i, tup := range oracle.SortedTuples() {
		want[i] = tup
	}
	if !sameRows(got, want) {
		t.Fatalf("sorted tuples %v, oracle %v", got, want)
	}
	if resp.Stats == nil || resp.Stats.Joins == 0 {
		t.Errorf("executed query must carry run stats, got %+v", resp.Stats)
	}

	// The request log carries fingerprint, verdict and status, and whether
	// the text was compiled for this request or looked up; a second arrival
	// of the text is looked up, keeps the fingerprint, and both show in
	// health.
	roundTrip(t, addr, &Request{Op: "query", Query: queryText(t, g), Timeout: "2s"})
	lines := logLines(t, &log)
	if len(lines) != 2 {
		t.Fatalf("log has %d lines, want 2: %s", len(lines), log.String())
	}
	for _, key := range []string{"fp", "verdict", "status", "method", "elapsed_us", "compiled"} {
		if _, ok := lines[0][key]; !ok {
			t.Errorf("log line missing %q: %v", key, lines[0])
		}
	}
	if lines[0]["compiled"] != "miss" || lines[1]["compiled"] != "hit" || lines[0]["fp"] != lines[1]["fp"] {
		t.Errorf("log lines %v: want compiled miss then hit under one fp", lines)
	}
	h := roundTrip(t, addr, &Request{Op: "health"}).Health
	if h == nil || h.CompiledHits != 1 || h.CompiledMisses != 1 || h.CompiledEntries != 1 || h.Served != 2 {
		t.Errorf("health %+v, want 2 served: 1 compiled miss, 1 hit, 1 entry", h)
	}
}

func TestOverWidthRejectedWithoutMaterializing(t *testing.T) {
	// The augmented circular ladder of order 5 has plan width 5, over the
	// threshold of 3, and an AGM bound of 2^25.85 rows, over the 2^24 up to
	// which the worst-case-optimal override would admit it (see
	// TestAGMOverrideAdmitsWideQuery for that path). Admission must reject
	// before any execution.
	g := graph.AugmentedCircularLadder(5)
	in := colorQuery(t, g)
	s, addr := startServer(t, Config{DB: in.db, MaxWidth: 3})

	resp := roundTrip(t, addr, &Request{Op: "query", Query: queryText(t, g)})
	if resp.Status != StatusOverWidth {
		t.Fatalf("status = %s (%s), want over_width", resp.Status, resp.Error)
	}
	if resp.Verdict == nil || resp.Verdict.Admitted || resp.Verdict.PlanWidth <= 3 || resp.Verdict.AGMLog2 <= wcojAGMLog2 {
		t.Fatalf("verdict = %+v, want rejected with plan width > 3 and AGM log2 > %d", resp.Verdict, wcojAGMLog2)
	}
	// Nothing may have been materialized: no stats frame at all.
	if resp.Stats != nil {
		t.Fatalf("over-width rejection carried run stats %+v: an intermediate was materialized", resp.Stats)
	}
	if got := s.overWidth.Load(); got != 1 {
		t.Errorf("overWidth counter = %d, want 1", got)
	}
}

func TestAGMOverrideAdmitsWideQuery(t *testing.T) {
	// K6 3-COLOR is over MaxWidth=3 for every plan method, but its AGM
	// output bound is tiny (a 3-edge cover of 6 variables charges
	// 3·log2(6) ≈ 7.75 bits). With the worst-case-optimal override at
	// its default, the same request the previous test saw rejected is
	// now admitted, routed to the wcoj executor, and answered — the
	// answer (empty: K6 is not 3-colorable) matching the oracle.
	g := graph.Complete(6)
	in := colorQuery(t, g)
	_, addr := startServer(t, Config{DB: in.db, MaxWidth: 3})

	resp := roundTrip(t, addr, &Request{Op: "query", Query: queryText(t, g)})
	if resp.Status != StatusOK {
		t.Fatalf("status = %s (%s), want ok", resp.Status, resp.Error)
	}
	if resp.Verdict == nil || !resp.Verdict.Admitted || !resp.Verdict.AdmittedOnAGM {
		t.Fatalf("verdict = %+v, want AdmittedOnAGM", resp.Verdict)
	}
	if resp.Verdict.Method != string(core.MethodWCOJ) {
		t.Errorf("routed method = %q, want wcoj", resp.Verdict.Method)
	}
	oracle, err := engine.EvalOracle(in.q, in.db)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Answer == nil || resp.Answer.Nonempty != (oracle.Len() > 0) {
		t.Fatalf("answer = %+v, oracle has %d rows (K6 is not 3-colorable)", resp.Answer, oracle.Len())
	}
	if resp.Stats == nil || resp.Stats.Seeks == 0 {
		t.Errorf("wcoj run must report leapfrog seeks, got %+v", resp.Stats)
	}

	// A nonempty wide instance answers too: C5 3-COLOR under MaxWidth=2
	// (its plan width is 3). Narrow as it is, the admission override sends
	// it to the leapfrog join ahead of the width tiers.
	g2 := graph.Cycle(5)
	in2 := colorQuery(t, g2)
	_, addr2 := startServer(t, Config{DB: in2.db, MaxWidth: 2})
	resp2 := roundTrip(t, addr2, &Request{Op: "query", Query: queryText(t, g2)})
	if resp2.Status != StatusOK {
		t.Fatalf("C5 status = %s (%s), want ok", resp2.Status, resp2.Error)
	}
	if resp2.Answer == nil || !resp2.Answer.Nonempty {
		t.Fatalf("C5 is 3-colorable, got answer %+v", resp2.Answer)
	}
	if resp2.Verdict.Method != string(core.MethodWCOJ) {
		t.Errorf("C5 routed to %s, want wcoj", resp2.Verdict.Method)
	}

	// An explicit non-wcoj method request keeps the rejection: the
	// override only applies when the wcoj executor will run.
	resp3 := roundTrip(t, addr, &Request{
		Op: "query", Query: queryText(t, g), Method: string(core.MethodBucketElimination),
	})
	if resp3.Status != StatusOverWidth {
		t.Errorf("explicit bucketelimination on K6: status = %s, want over_width", resp3.Status)
	}
}

func TestParseAndMethodErrors(t *testing.T) {
	in := colorQuery(t, graph.Ladder(3))
	_, addr := startServer(t, Config{DB: in.db})

	resp := roundTrip(t, addr, &Request{Op: "query", Query: "query ans(x) :- nosuch(x, y)."})
	if resp.Status != StatusParseError {
		t.Errorf("unknown relation: status = %s, want parse_error", resp.Status)
	}
	resp = roundTrip(t, addr, &Request{Op: "query", Query: "query ans(x, x) :- edge(x,y), edge(y,z), edge(z,x)."})
	if resp.Status != StatusParseError || resp.Stats != nil {
		t.Errorf("repeated head variable: status = %s, stats %+v; want parse_error with no attempts", resp.Status, resp.Stats)
	}
	resp = roundTrip(t, addr, &Request{Op: "query", Query: queryText(t, graph.Ladder(3)), Method: "nosuchmethod"})
	if resp.Status != StatusError {
		t.Errorf("unknown method: status = %s, want error", resp.Status)
	}
	resp = roundTrip(t, addr, &Request{Op: "frobnicate"})
	if resp.Status != StatusError {
		t.Errorf("unknown op: status = %s, want error", resp.Status)
	}
}

func TestExplainDoesNotExecute(t *testing.T) {
	in := colorQuery(t, graph.Ladder(3))
	_, addr := startServer(t, Config{DB: in.db})
	resp := roundTrip(t, addr, &Request{Op: "explain", Query: queryText(t, graph.Ladder(3))})
	if resp.Status != StatusOK || resp.Explain == "" {
		t.Fatalf("explain: %+v", resp)
	}
	if resp.Verdict == nil || !resp.Verdict.Admitted {
		t.Fatalf("explain verdict = %+v", resp.Verdict)
	}
	if resp.Answer != nil || resp.Stats != nil {
		t.Errorf("explain must not execute: answer=%v stats=%v", resp.Answer, resp.Stats)
	}
}

func TestDegradedAnswerViaLadder(t *testing.T) {
	// The straightforward method blows a tight row cap on the augmented
	// ladder; the ladder rescues the run with a projection-pushing
	// method. The degraded answer must still match the oracle.
	g := graph.AugmentedLadder(5)
	in := colorQuery(t, g)
	_, addr := startServer(t, Config{DB: in.db, MaxRows: 2000})

	resp := roundTrip(t, addr, &Request{
		Op: "query", Query: queryText(t, g), Method: string(core.MethodStraightforward),
	})
	if resp.Status != StatusDegraded {
		t.Fatalf("status = %s (%s), want degraded", resp.Status, resp.Error)
	}
	if resp.Stats == nil || len(resp.Stats.Attempts) < 2 {
		t.Fatalf("degraded run must record its attempts, got %+v", resp.Stats)
	}
	if resp.Stats.Attempts[0].Err == "" {
		t.Errorf("first attempt should record the failure, got %+v", resp.Stats.Attempts[0])
	}
	oracle, err := engine.EvalOracle(in.q, in.db)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Answer.Rows != oracle.Len() {
		t.Fatalf("degraded answer has %d rows, oracle %d", resp.Answer.Rows, oracle.Len())
	}
}

func TestShedUnderLoad(t *testing.T) {
	// One slot, no queue, and a kernel latency that keeps the slot busy:
	// concurrent requests must be shed with a typed response, fast.
	if err := faultinject.Enable("kernel.latency=200ms:1", 7); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()
	g := graph.AugmentedPath(3)
	in := colorQuery(t, g)
	_, addr := startServer(t, Config{DB: in.db, MaxConcurrent: 1, MaxQueue: -1, QueueWait: 10 * time.Millisecond})

	text := queryText(t, g)
	const n = 4
	statuses := make([]Status, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i] = roundTrip(t, addr, &Request{Op: "query", Query: text}).Status
		}(i)
	}
	wg.Wait()
	var ok, shed int
	for _, st := range statuses {
		switch st {
		case StatusOK:
			ok++
		case StatusShed:
			shed++
		default:
			t.Errorf("unexpected status %s under overload", st)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("want both served and shed outcomes, got ok=%d shed=%d", ok, shed)
	}
}

func TestGracefulDrain(t *testing.T) {
	base := runtime.NumGoroutine()
	g := graph.AugmentedPath(2)
	in := colorQuery(t, g)
	s := New(Config{DB: in.db})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve() }()
	addr := s.Addr().String()

	// Conn A carries a slow in-flight query; conn B checks readiness
	// mid-drain.
	if err := faultinject.Enable("kernel.latency=150ms:1", 3); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()
	connA, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer connA.Close()
	connB, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer connB.Close()
	for _, c := range []net.Conn{connA, connB} {
		c.SetDeadline(time.Now().Add(10 * time.Second))
	}
	if err := WriteFrame(connA, &Request{Op: "query", Query: queryText(t, g)}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the slow query start

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	time.Sleep(20 * time.Millisecond) // draining flag is set before the wait

	// Readiness flips first: an existing connection sees ready=false
	// while the in-flight query still runs.
	if err := WriteFrame(connB, &Request{Op: "ready"}); err == nil {
		var ready Response
		if err := ReadFrame(connB, &ready); err == nil {
			if ready.Ready == nil || *ready.Ready {
				t.Errorf("readiness during drain = %+v, want false", ready.Ready)
			}
		}
	}

	// The in-flight query drains to completion with its answer.
	var resp Response
	if err := ReadFrame(connA, &resp); err != nil {
		t.Fatalf("in-flight request lost during drain: %v", err)
	}
	if resp.Status != StatusOK {
		t.Fatalf("drained request status = %s (%s), want ok", resp.Status, resp.Error)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve returned %v after drain", err)
	}
	// New connections are refused.
	if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		c.Close()
		t.Error("dial succeeded after shutdown")
	}
	// No goroutines leaked.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines leaked: %d before, %d after", base, n)
	}
}

func TestStreamMethodExplicit(t *testing.T) {
	g := graph.AugmentedPath(5)
	in := colorQuery(t, g)
	_, addr := startServer(t, Config{DB: in.db})

	resp := roundTrip(t, addr, &Request{Op: "query", Query: queryText(t, g), Method: "stream"})
	if resp.Status != StatusOK {
		t.Fatalf("status = %s (%s), want ok", resp.Status, resp.Error)
	}
	oracle, err := engine.EvalOracle(in.q, in.db)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Answer == nil || resp.Answer.Nonempty != (oracle.Len() > 0) {
		t.Fatalf("answer = %+v, oracle nonempty=%v", resp.Answer, oracle.Len() > 0)
	}
	// The streaming engine reports peak live bytes, and Bytes is that
	// same peak (not a cumulative total).
	if resp.Stats == nil || resp.Stats.PeakBytes <= 0 {
		t.Fatalf("stream stats = %+v, want positive PeakBytes", resp.Stats)
	}
	if resp.Stats.Bytes != resp.Stats.PeakBytes {
		t.Errorf("stream Bytes %d != PeakBytes %d", resp.Stats.Bytes, resp.Stats.PeakBytes)
	}
}

func TestPredictedPeakAdmission(t *testing.T) {
	g := graph.AugmentedPath(4)
	in := colorQuery(t, g)
	_, addr := startServer(t, Config{DB: in.db, MaxPredictedBytes: 1})

	resp := roundTrip(t, addr, &Request{Op: "query", Query: queryText(t, g)})
	if resp.Status != StatusOverWidth {
		t.Fatalf("status = %s (%s), want over_width", resp.Status, resp.Error)
	}
	if resp.Verdict == nil || resp.Verdict.PredictedPeakBytes <= 1 {
		t.Fatalf("verdict = %+v, want PredictedPeakBytes > 1", resp.Verdict)
	}
	if resp.Verdict.MaxPredictedBytes != 1 {
		t.Errorf("verdict does not echo MaxPredictedBytes: %+v", resp.Verdict)
	}
	if resp.Stats != nil {
		t.Fatalf("byte-budget rejection carried run stats %+v", resp.Stats)
	}
}

// TestPeerDisconnectCancelsInFlightHandler pins the per-request context
// contract: a client that hangs up mid-request cancels the handler's
// context, so long-running work (a coordinator fan-out, an execution)
// stops instead of running to its full timeout for a peer that is gone.
func TestPeerDisconnectCancelsInFlightHandler(t *testing.T) {
	outcome := make(chan error, 1)
	started := make(chan struct{})
	s := New(Config{
		Handler: func(ctx context.Context, req *Request, remote string) *Response {
			close(started)
			select {
			case <-ctx.Done():
				outcome <- ctx.Err()
			case <-time.After(5 * time.Second):
				outcome <- nil
			}
			return &Response{Status: StatusOK}
		},
	})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, &Request{Op: "query", Query: "ignored"}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(3 * time.Second):
		t.Fatal("handler never started")
	}
	conn.Close() // the client gives up mid-request

	select {
	case err := <-outcome:
		if err == nil {
			t.Fatal("handler ran to completion; peer disconnect did not cancel its context")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("handler context not canceled after peer disconnect")
	}
}

// TestPipelinedRequestsAllAnswered guards the disconnect watcher against
// eating pipelined frames: Peek must not consume the next request's
// bytes, so a client that writes several requests back-to-back before
// reading gets every answer, in order.
func TestPipelinedRequestsAllAnswered(t *testing.T) {
	s := New(Config{
		Handler: func(ctx context.Context, req *Request, remote string) *Response {
			return &Response{Status: StatusOK, Explain: req.Query}
		},
	})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const n = 5
	for i := 0; i < n; i++ {
		if err := WriteFrame(conn, &Request{Op: "query", Query: fmt.Sprintf("q-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		var resp Response
		if err := ReadFrame(conn, &resp); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if resp.Status != StatusOK || resp.Explain != fmt.Sprintf("q-%d", i) {
			t.Fatalf("response %d = %+v, want ok/q-%d", i, resp, i)
		}
	}
}

// TestRelBlockShadowsTheResidentIndex: a request whose rel block shadows
// the server's e runs leapfrog over its own e — an arena of its own, with
// its own indexes — and answers like the oracle over it, while the plain
// request after it still reads the indexes resident on the server's e:
// health's resident_index_bytes is what the first plain request built and
// does not move.
func TestRelBlockShadowsTheResidentIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e := relation.New([]relation.Attr{0, 1})
	for e.Len() < 1500 {
		e.Add(relation.Tuple{relation.Value(rng.Intn(80)), relation.Value(rng.Intn(80))})
	}
	s := New(Config{DB: cq.Database{"e": e}})
	const text = "query ans(x) :- e(x, y), e(y, z), e(z, x).\n"
	own := cq.Database{"e": relation.New([]relation.Attr{0, 1})}
	block := "rel e {\n"
	for _, t := range []relation.Tuple{{1, 2}, {2, 3}, {3, 1}, {3, 4}, {4, 5}} {
		own["e"].Add(t)
		block += fmt.Sprintf(" %d %d\n", t[0], t[1])
	}
	block += "}\n"

	ask := func(text string, db cq.Database) {
		t.Helper()
		resp := s.handleRequest(context.Background(), &Request{Op: "query", Query: text}, "test")
		if resp.Status != StatusOK || resp.Stats == nil || resp.Stats.Seeks == 0 {
			t.Fatalf("status %s (%s), stats %+v: want an answer from leapfrog", resp.Status, resp.Error, resp.Stats)
		}
		f, err := cqparse.ParseWith(strings.NewReader(text), db)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := engine.EvalOracle(f.Query, db)
		if err != nil {
			t.Fatal(err)
		}
		got := decoded(t, resp).Answer.Tuples
		slices.SortFunc(got, slices.Compare[[]int32])
		want := make([][]int32, oracle.Len())
		for i, tup := range oracle.SortedTuples() {
			want[i] = tup
		}
		if !sameRows(got, want) {
			t.Fatalf("answer %v, oracle %v", got, want)
		}
	}
	ask(text, s.cfg.DB)
	resident := s.health().ResidentIndexBytes
	// Each index is e's two columns, its run bitmaps, 80 runs of 2 words,
	// and its start offsets, one for each of the values 0…79.
	if want := 2 * (int64(e.Len())*2*4 + 80*2*8 + 80*4); resident != want {
		t.Fatalf("resident_index_bytes = %d after the first run, want e's two 2-column indexes = %d", resident, want)
	}
	ask(block+text, own)
	ask(text, s.cfg.DB)
	if got := s.health().ResidentIndexBytes; got != resident {
		t.Errorf("resident_index_bytes moved %d → %d: the shadowing request reached the server's e", resident, got)
	}
}
