// Chaos drill: concurrent retrying clients against a server with
// network and engine faults injected. The acceptance bar (ISSUE 5):
// clients see only typed outcomes, every returned answer is
// differentially equal to the oracle, over-width queries are rejected
// at admission without materializing any intermediate, and SIGTERM-style
// shutdown drains with zero goroutine leaks — all under -race.
//
// This is a black-box test (package server_test): it drives the real
// wire protocol through internal/server/client, which internal/server's
// own tests cannot import without a cycle.
package server_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"projpush/internal/cq"
	"projpush/internal/cqparse"
	"projpush/internal/engine"
	"projpush/internal/faultinject"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/server"
	"projpush/internal/server/client"
)

// chaosCase is a query text plus its oracle answer.
type chaosCase struct {
	name   string
	text   string
	tuples [][]int32
}

// buildChaosCases renders a mix of low-width 3-COLOR queries with free
// variables (so answers are real relations, not just booleans) and
// computes each oracle answer once, up front, with no faults armed.
func buildChaosCases(t *testing.T, db cq.Database) []chaosCase {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"augpath4", graph.AugmentedPath(4)},
		{"augpath5", graph.AugmentedPath(5)},
		{"ladder3", graph.Ladder(3)},
		{"cycle5", graph.Cycle(5)},
	}
	var cases []chaosCase
	for _, gc := range graphs {
		free := instance.ChooseFree(instance.EdgeVertices(gc.g), 0.3, rng)
		q, err := instance.ColorQuery(gc.g, free)
		if err != nil {
			t.Fatalf("%s: ColorQuery: %v", gc.name, err)
		}
		var buf bytes.Buffer
		if err := cqparse.WriteQuery(&buf, q); err != nil {
			t.Fatalf("%s: WriteQuery: %v", gc.name, err)
		}
		oracle, err := engine.EvalOracle(q, db)
		if err != nil {
			t.Fatalf("%s: EvalOracle: %v", gc.name, err)
		}
		sorted := oracle.SortedTuples()
		tuples := make([][]int32, len(sorted))
		for i, tup := range sorted {
			row := make([]int32, len(tup))
			for j, v := range tup {
				row[j] = int32(v)
			}
			tuples[i] = row
		}
		cases = append(cases, chaosCase{name: gc.name, text: buf.String(), tuples: tuples})
	}
	return cases
}

// overWidthQuery renders a query over the drill's admission threshold
// that the worst-case-optimal override cannot admit: a random order-20
// 3-COLOR query with 80 edges, whose admitted plan has width 13 and whose
// AGM bound, 2^28.4 rows, is over the override's 2^24.
func overWidthQuery(t *testing.T) string {
	t.Helper()
	g, err := graph.Random(20, 80, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cqparse.WriteQuery(&buf, q); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// sameTuples compares an answer received in the executor's row order
// with the oracle's sorted rows: it sorts a copy of got, then checks row
// count, arity and every value.
func sameTuples(got, sorted [][]int32) bool {
	got = slices.Clone(got)
	slices.SortFunc(got, slices.Compare[[]int32])
	return slices.EqualFunc(got, sorted, slices.Equal[[]int32])
}

// undrawn lists the points a fault spec arms whose sites no run reached
// since Enable: a drill that arms such a point verifies nothing about it.
func undrawn(spec string) []string {
	var out []string
	for i, name := range faultinject.PointNames() {
		if strings.Contains(","+spec, ","+name+"=") && faultinject.Calls(faultinject.Point(i)) == 0 {
			out = append(out, name)
		}
	}
	return out
}

func TestChaosDrill(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()

	db := instance.ColorDatabase(3)
	cases := buildChaosCases(t, db)
	wide := overWidthQuery(t)

	srv := server.New(server.Config{
		DB: db,
		// Free variables push the drill queries' plan width to 4
		// (they must survive every intermediate); the wide probe needs
		// 13 and its output bound is too large for the override, so it
		// exercises the rejection path this drill verifies.
		MaxWidth:       5,
		MaxConcurrent:  2,
		MaxQueue:       2,
		QueueWait:      50 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
		MaxRows:        200_000,
		MaxBytes:       8 << 20, // tight budget: injected allocs must hit it
	})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	addr := srv.Addr().String()

	// Network faults (dropped accepts, torn slow writes, dropped
	// connections) plus engine faults (panics, failed allocations,
	// kernel latency), deterministic per (seed, point, call index).
	spec := "accept.fail=0.05,conn.drop=0.05,write.slow=1ms:0.08," +
		"kernel.latency=1ms:0.1,join.panic=0.03,join.alloc=0.03"
	if err := faultinject.Enable(spec, 42); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()

	const (
		numClients  = 6
		perClient   = 8
		wideAtIndex = 3 // each client sends one over-width probe here
	)
	type tally struct {
		ok, degraded, shed, overWidth, timeout, resource, internal int
	}
	var (
		mu     sync.Mutex
		counts tally
		wg     sync.WaitGroup
	)
	for ci := 0; ci < numClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := client.New(client.Options{
				Addr:           addr,
				MaxRetries:     8,
				AttemptTimeout: 3 * time.Second,
				BaseBackoff:    2 * time.Millisecond,
				MaxBackoff:     50 * time.Millisecond,
				Seed:           int64(ci) + 1,
			})
			for r := 0; r < perClient; r++ {
				if r == wideAtIndex {
					resp, err := c.Query(context.Background(), wide, "")
					var se *client.StatusError
					switch {
					case err == nil:
						t.Errorf("client %d: over-width query admitted", ci)
					case !errors.As(err, &se) || se.Status != server.StatusOverWidth:
						t.Errorf("client %d: over-width query: got %v, want %s", ci, err, server.StatusOverWidth)
					case !errors.Is(err, engine.ErrOverWidth):
						t.Errorf("client %d: over-width error does not alias engine.ErrOverWidth", ci)
					case resp == nil || resp.Verdict == nil:
						t.Errorf("client %d: over-width response lacks admission verdict", ci)
					case resp.Stats != nil:
						// The acceptance criterion: rejection happens at
						// admission, before any intermediate exists.
						t.Errorf("client %d: over-width response carries execution stats %+v", ci, resp.Stats)
					default:
						mu.Lock()
						counts.overWidth++
						mu.Unlock()
					}
					continue
				}
				cse := cases[(ci*perClient+r)%len(cases)]
				resp, err := c.Query(context.Background(), cse.text, "")
				if err == nil {
					if resp.Status != server.StatusOK && resp.Status != server.StatusDegraded {
						t.Errorf("client %d: nil error with status %s", ci, resp.Status)
						continue
					}
					if resp.Answer == nil {
						t.Errorf("client %d: %s: OK without an answer", ci, cse.name)
						continue
					}
					// Differential check: no lost or duplicated answers.
					if !sameTuples(resp.Answer.Tuples, cse.tuples) {
						t.Errorf("client %d: %s: answer has %d rows, oracle has %d (or rows differ)",
							ci, cse.name, len(resp.Answer.Tuples), len(cse.tuples))
					}
					mu.Lock()
					if resp.Status == server.StatusDegraded {
						counts.degraded++
					} else {
						counts.ok++
					}
					mu.Unlock()
					continue
				}
				// Failures must be typed: a *StatusError with one of the
				// documented outcomes, never a raw transport error or hang.
				var se *client.StatusError
				if !errors.As(err, &se) {
					t.Errorf("client %d: %s: untyped failure after retries: %v", ci, cse.name, err)
					continue
				}
				mu.Lock()
				switch se.Status {
				case server.StatusShed, server.StatusDraining:
					counts.shed++
				case server.StatusTimeout:
					counts.timeout++
				case server.StatusResourceLimit:
					counts.resource++
				case server.StatusInternal:
					counts.internal++
				default:
					t.Errorf("client %d: %s: unexpected typed status %s: %v", ci, cse.name, se.Status, err)
				}
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	faultinject.Disable()

	if idle := undrawn(spec); len(idle) > 0 {
		t.Errorf("armed fault points never drawn: %v", idle)
	}
	if counts.ok+counts.degraded == 0 {
		t.Error("drill produced no successful answers")
	}
	if counts.overWidth != numClients {
		t.Errorf("over-width rejections = %d, want %d", counts.overWidth, numClients)
	}
	t.Logf("drill outcomes: ok=%d degraded=%d shed=%d over_width=%d timeout=%d resource=%d internal=%d",
		counts.ok, counts.degraded, counts.shed, counts.overWidth, counts.timeout, counts.resource, counts.internal)

	// Health must reconcile with what clients observed.
	hc := client.New(client.Options{Addr: addr})
	h, err := hc.Health(context.Background())
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	if h.Served < int64(counts.ok) {
		t.Errorf("health.Served = %d, below client-observed %d", h.Served, counts.ok)
	}
	if h.OverWidth < int64(numClients) {
		t.Errorf("health.OverWidth = %d, want >= %d", h.OverWidth, numClients)
	}

	// Clean drain: Shutdown completes in deadline, Serve returns nil,
	// the port stops answering, and no goroutines are left behind.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after drain", err)
	}
	if _, err := hc.Ready(context.Background()); err == nil {
		t.Error("server still answering after drain")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutine leak after drain: %d > %d\n%s", n, baseGoroutines, buf[:runtime.Stack(buf, true)])
	}
}

// TestClientRetryPolicy pins the retry classification: shed and timeout
// are retryable, over-width and parse errors are terminal, and the
// sentinel aliasing works through errors.Is.
func TestClientRetryPolicy(t *testing.T) {
	retryable := []*client.StatusError{
		{Status: server.StatusShed},
		{Status: server.StatusTimeout},
		{Status: server.StatusInternal},
		{Status: server.StatusDraining},
	}
	for _, se := range retryable {
		if !client.Retryable(se) {
			t.Errorf("%s: want retryable", se.Status)
		}
	}
	terminal := []*client.StatusError{
		{Status: server.StatusOverWidth},
		{Status: server.StatusParseError},
		{Status: server.StatusResourceLimit},
		{Status: server.StatusCanceled},
		{Status: server.StatusError},
	}
	for _, se := range terminal {
		if client.Retryable(se) {
			t.Errorf("%s: want terminal", se.Status)
		}
	}
	if client.Retryable(context.Canceled) {
		t.Error("caller cancellation must not be retried")
	}

	aliases := []struct {
		status server.Status
		target error
	}{
		{server.StatusOverWidth, engine.ErrOverWidth},
		{server.StatusShed, engine.ErrOverloaded},
		{server.StatusDraining, engine.ErrOverloaded},
		{server.StatusTimeout, engine.ErrTimeout},
		{server.StatusTimeout, context.DeadlineExceeded},
		{server.StatusInternal, engine.ErrInternal},
		{server.StatusCanceled, engine.ErrCanceled},
	}
	for _, a := range aliases {
		if !errors.Is(&client.StatusError{Status: a.status}, a.target) {
			t.Errorf("status %s does not alias %v under errors.Is", a.status, a.target)
		}
	}
}
