// Worker-loss chaos drill (ISSUE 10): concurrent retrying clients
// against a 4-worker fleet while 2 of the 4 workers are killed and
// restarted mid-run, the worker.kill chaos loop keeps crashing members,
// and network faults tear coordinator-to-worker connections. The
// acceptance bar: every completed request is differentially equal to
// the single-process oracle, clients see only typed outcomes, at least
// one request failed over, and the drain leaves zero goroutines and
// zero listening sockets behind — all under -race, well inside 60s.
package cluster

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"projpush/internal/faultinject"
	"projpush/internal/instance"
	"projpush/internal/server"
	"projpush/internal/server/client"
)

func TestWorkerLossChaosDrill(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()

	db := instance.ColorDatabase(3)
	cases := buildFleetCases(t, db)

	fl, err := StartFleet("127.0.0.1:0", FleetConfig{
		Workers: 4,
		Worker: server.Config{
			DB:             db,
			MaxConcurrent:  2,
			MaxQueue:       2,
			QueueWait:      50 * time.Millisecond,
			RequestTimeout: 2 * time.Second,
			MaxRows:        200_000,
		},
		Coordinator: Config{
			Hedge:          true,
			HedgeFloor:     5 * time.Millisecond,
			LocalFallback:  true,
			RequestTimeout: 3 * time.Second,
			HealthInterval: 50 * time.Millisecond,
			HealthTimeout:  200 * time.Millisecond,
			FailThreshold:  2,
			Cooldown:       300 * time.Millisecond,
		},
		RestartDelay:  200 * time.Millisecond,
		ChaosInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := fl.Addr()
	workerAddrs := fl.WorkerAddrs()

	// Network faults on the worker side of every coordinator connection,
	// plus the worker.kill point the fleet's chaos loop polls —
	// deterministic per (seed, point, call index).
	spec := "worker.kill=0.02,conn.drop=0.05,conn.read.fail=0.05," +
		"read.slow=1ms:0.08,write.slow=1ms:0.08"
	if err := faultinject.Enable(spec, 42); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()

	const (
		numClients = 5
		perClient  = 8
	)
	type tally struct {
		ok, degraded, shed, timeout, resource, internal, unavailable int
	}
	var (
		mu     sync.Mutex
		counts tally
		wg     sync.WaitGroup
	)
	// killsDone is set once the kill/restart schedule below has run. Every
	// client sends at least perClient requests and keeps sending until
	// then: on kept connections the first 40 take well under the 100 ms
	// before the first kill, and a drill whose traffic ends before its
	// kills start drills nothing.
	var killsDone atomic.Bool
	for ci := 0; ci < numClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := client.New(client.Options{
				Addr:           addr,
				MaxRetries:     8,
				AttemptTimeout: 4 * time.Second,
				BaseBackoff:    2 * time.Millisecond,
				MaxBackoff:     50 * time.Millisecond,
				Seed:           int64(ci) + 1,
			})
			defer c.Close()
			for r := 0; r < perClient || !killsDone.Load(); r++ {
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
					// Differential check: kill/restart churn must never
					// lose or duplicate answer rows.
					if !sameTuples(resp.Answer.Tuples, cse.tuples) {
						t.Errorf("client %d: %s: answer has %d rows, oracle has %d (or rows differ)",
							ci, cse.name, len(resp.Answer.Tuples), len(cse.tuples))
					}
					if resp.Worker == "" {
						t.Errorf("client %d: %s: answer not attributed to a worker", ci, cse.name)
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
				// documented outcomes, never a raw transport error.
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
				case server.StatusUnavailable:
					counts.unavailable++
				default:
					t.Errorf("client %d: %s: unexpected typed status %s: %v", ci, cse.name, se.Status, err)
				}
				mu.Unlock()
			}
		}(ci)
	}

	// Worker-loss drill proper: while the clients run, hard-kill 2 of
	// the 4 workers (the crash, not the drain), leave them dead long
	// enough for probes to open their breakers, then restart them on
	// their fixed addresses so their shards come home.
	time.Sleep(100 * time.Millisecond)
	fl.Kill(0)
	time.Sleep(150 * time.Millisecond)
	fl.Kill(1)
	time.Sleep(300 * time.Millisecond)
	if err := fl.Restart(0); err != nil {
		t.Errorf("Restart(0): %v", err)
	}
	if err := fl.Restart(1); err != nil {
		t.Errorf("Restart(1): %v", err)
	}
	killsDone.Store(true)

	wg.Wait()
	faultinject.Disable()

	if counts.ok+counts.degraded == 0 {
		t.Error("drill produced no successful answers")
	}
	t.Logf("drill outcomes: ok=%d degraded=%d shed=%d timeout=%d resource=%d internal=%d unavailable=%d",
		counts.ok, counts.degraded, counts.shed, counts.timeout, counts.resource, counts.internal, counts.unavailable)

	// The coordinator must have failed over at least once: 2 of 4 shards
	// lost their primary mid-run.
	hc := client.New(client.Options{Addr: addr})
	h, err := hc.Health(context.Background())
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	if h.Failovers < 1 {
		t.Errorf("health.Failovers = %d, want >= 1 after killing 2 of 4 workers mid-run", h.Failovers)
	}
	if len(h.Workers) != 4 {
		t.Errorf("health.Workers tracks %d members, want 4: %v", len(h.Workers), h.Workers)
	}
	t.Logf("fleet health: failovers=%d hedges=%d rescued=%d unavailable=%d workers=%v",
		h.Failovers, h.Hedges, h.Rescued, h.Unavailable, h.Workers)

	// Clean drain: the coordinator and every worker stop answering, and
	// no goroutines or sockets are left behind.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := fl.Shutdown(ctx); err != nil {
		t.Fatalf("fleet Shutdown: %v", err)
	}
	if _, err := hc.Ready(context.Background()); err == nil {
		t.Error("coordinator still answering after drain")
	}
	for i, wa := range workerAddrs {
		if conn, err := net.DialTimeout("tcp", wa, 500*time.Millisecond); err == nil {
			conn.Close()
			t.Errorf("worker %d (%s) still accepting connections after drain", i, wa)
		}
	}
	assertNoGoroutineLeak(t, baseGoroutines)
}

// assertNoGoroutineLeak waits for the goroutine count to fall back to
// base, and fails with every stack if it does not.
func assertNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutine leak after drain: %d > %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}
