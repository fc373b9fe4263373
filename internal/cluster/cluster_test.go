package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"projpush/internal/cqparse"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/server"
	"projpush/internal/server/client"
)

// colorQueryText renders one 3-COLOR family query as request text.
func colorQueryText(t *testing.T, g *graph.Graph) string {
	t.Helper()
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

func TestRingOrderIsDeterministicAndComplete(t *testing.T) {
	r := newRing(64)
	addrs := []string{"10.0.0.1:1", "10.0.0.2:1", "10.0.0.3:1", "10.0.0.4:1"}
	for _, a := range addrs {
		r.add(a)
	}
	first := r.order("some-fingerprint")
	if len(first) != len(addrs) {
		t.Fatalf("order returned %d workers, want %d", len(first), len(addrs))
	}
	seen := map[string]bool{}
	for _, a := range first {
		seen[a] = true
	}
	if len(seen) != len(addrs) {
		t.Fatalf("order has duplicates: %v", first)
	}
	for i := 0; i < 10; i++ {
		again := r.order("some-fingerprint")
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("order not deterministic: %v vs %v", first, again)
			}
		}
	}
	// Keys spread: over many fingerprints, more than one worker leads.
	leads := map[string]bool{}
	for i := 0; i < 64; i++ {
		leads[r.order(fmt.Sprintf("fp-%d", i))[0]] = true
	}
	if len(leads) < 2 {
		t.Errorf("64 fingerprints all routed to one worker: %v", leads)
	}
}

func TestRingMembershipChangeIsMinimal(t *testing.T) {
	r := newRing(64)
	addrs := []string{"a:1", "b:1", "c:1", "d:1"}
	for _, a := range addrs {
		r.add(a)
	}
	before := make(map[string]string)
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("fp-%d", i)
		before[k] = r.order(k)[0]
	}
	r.remove("c:1")
	moved := 0
	for k, prev := range before {
		now := r.order(k)[0]
		if prev != "c:1" && now != prev {
			moved++
		}
	}
	// Consistent hashing: keys not owned by the removed worker stay put.
	if moved != 0 {
		t.Errorf("%d keys not owned by the removed worker were remapped", moved)
	}
	// Re-adding restores the original assignment exactly.
	r.add("c:1")
	for k, prev := range before {
		if now := r.order(k)[0]; now != prev {
			t.Fatalf("key %s moved from %s to %s after remove+re-add", k, prev, now)
		}
	}
}

// TestWorkerBreakerStateMachine drives one worker's health breaker with
// an injectable clock through the flapping sequence the drills rely on:
// closed under scattered failures, open at the threshold, half-open one
// trial after the cooldown, re-opened (cooldown reset) on a failed
// trial, closed again on a successful one.
func TestWorkerBreakerStateMachine(t *testing.T) {
	const (
		threshold = 2
		cooldown  = time.Second
	)
	now := time.Unix(1000, 0)
	w := newWorker("x:1", client.Options{})

	if got := w.status(now, cooldown); got != "up" {
		t.Fatalf("initial status = %s, want up", got)
	}
	w.fail(now, threshold)
	if got := w.status(now, cooldown); got != "up" {
		t.Fatalf("one failure below threshold flipped status to %s", got)
	}
	w.ok()
	w.fail(now, threshold)
	if got := w.status(now, cooldown); got != "up" {
		t.Fatalf("ok() did not reset the failure streak (status %s)", got)
	}

	// Two consecutive failures: open.
	w.fail(now, threshold)
	if got := w.status(now, cooldown); got != "down" {
		t.Fatalf("status after threshold failures = %s, want down", got)
	}
	if w.admit(now, cooldown) {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}

	// Cooldown elapses: half-open, exactly one trial admitted.
	now = now.Add(cooldown)
	if got := w.status(now, cooldown); got != "half-open" {
		t.Fatalf("status after cooldown = %s, want half-open", got)
	}
	if !w.admit(now, cooldown) {
		t.Fatal("half-open breaker refused the trial request")
	}
	if w.admit(now, cooldown) {
		t.Fatal("half-open breaker admitted a second concurrent trial")
	}

	// Failed trial: re-open with the cooldown anchor reset.
	w.fail(now, threshold)
	if got := w.status(now, cooldown); got != "down" {
		t.Fatalf("status after failed trial = %s, want down", got)
	}
	if w.admit(now.Add(cooldown/2), cooldown) {
		t.Fatal("failed trial did not reset the cooldown")
	}

	// Next trial succeeds: closed, requests flow.
	now = now.Add(cooldown)
	if !w.admit(now, cooldown) {
		t.Fatal("breaker refused the second trial")
	}
	w.ok()
	if got := w.status(now, cooldown); got != "up" {
		t.Fatalf("status after successful trial = %s, want up", got)
	}
	if !w.admit(now, cooldown) || !w.admit(now, cooldown) {
		t.Fatal("closed breaker limited admission")
	}
}

// TestWorkerTrialTokenLifecycle pins the half-open token plumbing the
// failover path depends on: enumeration (eligible) never claims the
// trial, claim hands it to exactly one caller and reports it, and
// releaseTrial returns an unresolved token so the worker stays
// recoverable after a cancelled trial attempt.
func TestWorkerTrialTokenLifecycle(t *testing.T) {
	const (
		threshold = 1
		cooldown  = time.Second
	)
	now := time.Unix(2000, 0)
	w := newWorker("x:1", client.Options{})
	w.fail(now, threshold) // open
	now = now.Add(cooldown)

	// eligible is a read: any number of calls leave the token unclaimed.
	for i := 0; i < 5; i++ {
		if !w.eligible(now, cooldown) {
			t.Fatal("half-open worker not eligible for candidate lists")
		}
	}
	ok, trial := w.claim(now, cooldown)
	if !ok || !trial {
		t.Fatalf("claim after eligible checks = (%v, %v), want the trial token", ok, trial)
	}
	if ok, _ := w.claim(now, cooldown); ok {
		t.Fatal("second concurrent trial claimed")
	}
	if w.eligible(now, cooldown) != true {
		t.Fatal("trial in flight must not hide the worker from enumeration")
	}

	// A cancelled trial releases the token; the next claim gets it.
	w.releaseTrial()
	ok, trial = w.claim(now, cooldown)
	if !ok || !trial {
		t.Fatalf("claim after releaseTrial = (%v, %v), want the trial token back", ok, trial)
	}
	w.ok()
	if got := w.status(now, cooldown); got != "up" {
		t.Fatalf("status after successful reclaimed trial = %s, want up", got)
	}
}

// TestBackupEnumerationDoesNotLockOutHalfOpenWorker is the regression
// drill for the trial-token leak: a half-open worker listed as a backup
// candidate — but never attempted, because the primary answers — must
// keep its trial token, so the next health probe (or forward) can still
// admit it and the worker heals instead of being excluded forever.
func TestBackupEnumerationDoesNotLockOutHalfOpenWorker(t *testing.T) {
	f1 := startFakeWorker(t, "w-a", 0)
	f2 := startFakeWorker(t, "w-b", 0)
	var clock struct {
		mu  sync.Mutex
		now time.Time
	}
	clock.now = time.Unix(7000, 0)
	cfg := Config{
		RequestTimeout: 2 * time.Second,
		FailThreshold:  1,
		Cooldown:       time.Second,
		now: func() time.Time {
			clock.mu.Lock()
			defer clock.mu.Unlock()
			return clock.now
		},
	}
	co, byAddr := newTestCoordinator(t, cfg, f1, f2)

	text := colorQueryText(t, graph.AugmentedPath(4))
	req := &server.Request{Op: "query", Query: text}
	order := co.ring.order(affinity(req))
	primary, secondary := byAddr[order[0]], byAddr[order[1]]

	// Open the backup replica's breaker and elapse the cooldown: it is
	// now half-open, one trial pending.
	co.mu.Lock()
	sec := co.workers[secondary.addr]
	co.mu.Unlock()
	sec.fail(clock.now, cfg.FailThreshold)
	clock.mu.Lock()
	clock.now = clock.now.Add(cfg.Cooldown)
	clock.mu.Unlock()
	if st := co.WorkerStates()[secondary.addr]; st != "half-open" {
		t.Fatalf("backup state = %q, want half-open", st)
	}

	// Traffic on the shard: the primary answers every time, the half-open
	// backup is enumerated as a failover candidate but never attempted.
	for i := 0; i < 5; i++ {
		resp, err := co.Do(context.Background(), req)
		if err != nil || resp.Status != server.StatusOK {
			t.Fatalf("query %d: %v / %+v", i, err, resp)
		}
		if resp.Worker != primary.id {
			t.Fatalf("query %d answered by %q, want the primary %q", i, resp.Worker, primary.id)
		}
	}
	sec.mu.Lock()
	probing := sec.probing
	sec.mu.Unlock()
	if probing {
		t.Fatal("candidate enumeration consumed the backup's half-open trial token")
	}

	// The probe round must therefore still be admitted — and heal it.
	co.checkWorkers()
	if st := co.WorkerStates()[secondary.addr]; st != "up" {
		t.Fatalf("backup state after probe = %q, want up (recovered)", st)
	}
}

// TestCanceledRequestIsTypedCanceled pins the cancellation status: a
// caller that gives up gets StatusCanceled, not a fabricated timeout.
func TestCanceledRequestIsTypedCanceled(t *testing.T) {
	f1 := startFakeWorker(t, "w-a", 0)
	co, _ := newTestCoordinator(t, Config{RequestTimeout: 5 * time.Second}, f1)

	text := colorQueryText(t, graph.AugmentedPath(4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resp, err := co.Do(ctx, &server.Request{Op: "query", Query: text})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != server.StatusCanceled {
		t.Fatalf("status = %s (%s), want canceled", resp.Status, resp.Error)
	}
}

// fakeWorker is a Handler-mode server whose per-request behavior is
// switched at runtime: mode 0 answers OK, 1 answers StatusInternal, 2
// sleeps before answering OK (the hedging victim) unless its context is
// canceled first, and sends that context's error on stalled either way.
// served counts the queries it answered.
type fakeWorker struct {
	id      string
	srv     *server.Server
	addr    string
	mode    atomic.Int32
	delay   time.Duration
	served  atomic.Int64
	stalled chan error
}

func startFakeWorker(t *testing.T, id string, delay time.Duration) *fakeWorker {
	t.Helper()
	f := &fakeWorker{id: id, delay: delay, stalled: make(chan error, 1)}
	f.srv = server.New(server.Config{
		WorkerID: id,
		Handler: func(ctx context.Context, req *server.Request, remote string) *server.Response {
			switch req.Op {
			case "ready":
				ready := true
				return &server.Response{Status: server.StatusOK, Ready: &ready}
			case "health":
				return &server.Response{Status: server.StatusOK, Health: &server.Health{Ready: true}}
			case "query":
				switch f.mode.Load() {
				case 1:
					return &server.Response{Status: server.StatusInternal, Error: "injected"}
				case 2:
					select {
					case <-ctx.Done():
					case <-time.After(f.delay):
					}
					f.stalled <- ctx.Err()
				}
				f.served.Add(1)
				return &server.Response{
					Status: server.StatusOK,
					Answer: &server.Answer{Attrs: []int{0}, Nonempty: true, Rows: 1, Tuples: [][]int32{{0}}},
				}
			default:
				return &server.Response{Status: server.StatusError, Error: "unexpected op " + req.Op}
			}
		},
	})
	if err := f.srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	f.addr = f.srv.Addr().String()
	go f.srv.Serve()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		f.srv.Shutdown(ctx)
	})
	return f
}

// newTestCoordinator builds an in-process coordinator over the fake
// workers with the background prober disabled, so tests control health
// transitions explicitly.
func newTestCoordinator(t *testing.T, cfg Config, fakes ...*fakeWorker) (*Coordinator, map[string]*fakeWorker) {
	t.Helper()
	byAddr := make(map[string]*fakeWorker, len(fakes))
	for _, f := range fakes {
		cfg.Workers = append(cfg.Workers, f.addr)
		byAddr[f.addr] = f
	}
	cfg.DB = instance.ColorDatabase(3)
	cfg.HealthInterval = -1
	co := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		co.Shutdown(ctx)
	})
	return co, byAddr
}

func TestForwardFailoverOnInternalFault(t *testing.T) {
	f1 := startFakeWorker(t, "w-a", 0)
	f2 := startFakeWorker(t, "w-b", 0)
	co, byAddr := newTestCoordinator(t, Config{RequestTimeout: 2 * time.Second}, f1, f2)

	text := colorQueryText(t, graph.AugmentedPath(4))
	req := &server.Request{Op: "query", Query: text}
	order := co.ring.order(affinity(req))
	primary, secondary := byAddr[order[0]], byAddr[order[1]]
	primary.mode.Store(1) // isolated internal fault on the affinity shard

	resp, err := co.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != server.StatusOK {
		t.Fatalf("status = %s (%s), want ok", resp.Status, resp.Error)
	}
	if resp.Failovers != 1 {
		t.Errorf("Failovers = %d, want 1", resp.Failovers)
	}
	if resp.Worker != secondary.id {
		t.Errorf("answered by %q, want the failover replica %q", resp.Worker, secondary.id)
	}
	if h := co.health(); h.Failovers != 1 {
		t.Errorf("health.Failovers = %d, want 1", h.Failovers)
	}

	// With the fault cleared, traffic returns to the affinity shard — the
	// typed fault never opened its breaker.
	primary.mode.Store(0)
	resp, err = co.Do(context.Background(), req)
	if err != nil || resp.Status != server.StatusOK {
		t.Fatalf("after clearing fault: %v / %+v", err, resp)
	}
	if resp.Worker != primary.id {
		t.Errorf("answered by %q, want the affinity shard %q", resp.Worker, primary.id)
	}
	if resp.Failovers != 0 {
		t.Errorf("Failovers = %d after recovery, want 0", resp.Failovers)
	}
}

func TestHedgedRequestWinsAndCancelsLoser(t *testing.T) {
	f1 := startFakeWorker(t, "w-a", 400*time.Millisecond)
	f2 := startFakeWorker(t, "w-b", 400*time.Millisecond)
	co, byAddr := newTestCoordinator(t, Config{
		RequestTimeout: 5 * time.Second,
		Hedge:          true,
		HedgeFloor:     20 * time.Millisecond,
	}, f1, f2)

	text := colorQueryText(t, graph.Ladder(3))
	req := &server.Request{Op: "query", Query: text}
	order := co.ring.order(affinity(req))
	primary, secondary := byAddr[order[0]], byAddr[order[1]]
	primary.mode.Store(2) // the affinity shard stalls; the hedge must win

	start := time.Now()
	resp, err := co.Do(context.Background(), req)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != server.StatusOK {
		t.Fatalf("status = %s (%s), want ok", resp.Status, resp.Error)
	}
	if !resp.Hedged {
		t.Error("winning answer not marked Hedged")
	}
	if resp.Worker != secondary.id {
		t.Errorf("answered by %q, want the hedge replica %q", resp.Worker, secondary.id)
	}
	if resp.Failovers != 0 {
		t.Errorf("Failovers = %d, want 0 (the primary was slow, not failed)", resp.Failovers)
	}
	if elapsed >= 400*time.Millisecond {
		t.Errorf("hedged answer took %v; the stalled primary was waited out", elapsed)
	}
	if h := co.health(); h.Hedges != 1 {
		t.Errorf("health.Hedges = %d, want 1", h.Hedges)
	}

	// The loser's connection is closed, not kept: that is what cancels the
	// stalled worker's run, and what keeps the loser's late answer from
	// being read by the next forward. The winner's connection is kept.
	select {
	case err := <-primary.stalled:
		if err == nil {
			t.Error("the stalled worker slept out its delay: the loser's connection was not closed")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("the stalled worker's handler never returned")
	}
	waitOpenConns(t, primary.addr, 0)
	waitOpenConns(t, secondary.addr, 1)
}

// waitOpenConns polls the worker's open_conns gauge until it holds want
// connections besides the one asking.
func waitOpenConns(t *testing.T, addr string, want int) {
	t.Helper()
	probe := client.New(client.Options{Addr: addr, MaxRetries: -1})
	defer probe.Close()
	got := -1
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		h, err := probe.Health(context.Background())
		if err != nil {
			t.Fatalf("health %s: %v", addr, err)
		}
		if got = h.OpenConns - 1; got == want {
			return
		}
	}
	t.Fatalf("worker %s holds %d connections besides the probe's, want %d", addr, got, want)
}

// TestRestartedWorkerAnswersItsFirstForward: a worker killed and restarted
// between two forwards closed every connection the coordinator kept to
// it. That is not a fault of the new process: the first forward after the
// restart redials within the attempt and is answered by that worker, with
// no failover and no strike against its breaker.
func TestRestartedWorkerAnswersItsFirstForward(t *testing.T) {
	db := instance.ColorDatabase(3)
	fl, err := StartFleet("127.0.0.1:0", FleetConfig{
		Workers:       2,
		Worker:        server.Config{DB: db, RequestTimeout: 2 * time.Second},
		Coordinator:   Config{HealthInterval: -1, RequestTimeout: 2 * time.Second, FailThreshold: 1},
		ChaosInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	co := fl.Coordinator()
	req := &server.Request{Op: "query", Query: colorQueryText(t, graph.AugmentedPath(4))}

	var home string
	for i := 0; i < 3; i++ { // the later ones travel on the kept connection
		resp, err := co.Do(context.Background(), req)
		if err != nil || resp.Status != server.StatusOK {
			t.Fatalf("forward %d before the kill: %v / %+v", i, err, resp)
		}
		home = resp.Worker
	}
	slot := map[string]int{"w0": 0, "w1": 1}[home]
	addr := fl.WorkerAddrs()[slot]
	co.checkWorkers() // a probe's kept connection dies with the worker too

	fl.Kill(slot)
	if err := fl.Restart(slot); err != nil {
		t.Fatal(err)
	}
	resp, err := co.Do(context.Background(), req)
	if err != nil || resp.Status != server.StatusOK {
		t.Fatalf("first forward after the restart: %v / %+v", err, resp)
	}
	if resp.Worker != home || resp.Failovers != 0 {
		t.Errorf("first forward after the restart: worker=%q failovers=%d, want %q/0", resp.Worker, resp.Failovers, home)
	}
	co.checkWorkers()
	if st := co.WorkerStates()[addr]; st != "up" {
		t.Errorf("restarted worker state = %q, want up: a stale kept connection is not a strike", st)
	}
}

// TestReapReplaceAndShutdownReleaseWorkerConnections: a kept connection
// costs the worker a handler and a watcher goroutine, so the coordinator
// releases a member's when the member is reaped or replaced and every
// member's when it shuts down.
func TestReapReplaceAndShutdownReleaseWorkerConnections(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	db := instance.ColorDatabase(3)
	var workers [2]*server.Server
	var addrs [2]string
	for i := range workers {
		workers[i] = server.New(server.Config{DB: db, RequestTimeout: time.Second})
		if err := workers[i].Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		go workers[i].Serve()
		addrs[i] = workers[i].Addr().String()
	}
	co := New(Config{DB: db, Workers: addrs[:], HealthInterval: -1, RequestTimeout: 2 * time.Second})
	do := func(op, addr string) {
		t.Helper()
		if resp, err := co.Do(context.Background(), &server.Request{Op: op, Addr: addr}); err != nil || resp.Status != server.StatusOK {
			t.Fatalf("%s %s: %v / %+v", op, addr, err, resp)
		}
	}

	co.checkWorkers() // one probe each: one kept connection each
	waitOpenConns(t, addrs[0], 1)
	waitOpenConns(t, addrs[1], 1)

	// Replaced while draining: the old membership's transport is closed.
	do("deregister", addrs[0])
	do("register", addrs[0])
	waitOpenConns(t, addrs[0], 0)
	co.checkWorkers()
	waitOpenConns(t, addrs[0], 1)

	// Reaped.
	do("deregister", addrs[0])
	co.checkWorkers()
	if _, ok := co.WorkerStates()[addrs[0]]; ok {
		t.Fatal("drained idle worker was not reaped")
	}
	waitOpenConns(t, addrs[0], 0)
	waitOpenConns(t, addrs[1], 1)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := co.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	waitOpenConns(t, addrs[1], 0)

	for _, w := range workers {
		if err := w.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}
	assertNoGoroutineLeak(t, baseGoroutines)
}

func TestDeregisterReroutesAndRegisterRestores(t *testing.T) {
	f1 := startFakeWorker(t, "w-a", 0)
	f2 := startFakeWorker(t, "w-b", 0)
	co, byAddr := newTestCoordinator(t, Config{RequestTimeout: 2 * time.Second}, f1, f2)

	text := colorQueryText(t, graph.AugmentedPath(5))
	req := &server.Request{Op: "query", Query: text}
	order := co.ring.order(affinity(req))
	primary, secondary := byAddr[order[0]], byAddr[order[1]]

	resp, err := co.Do(context.Background(), req)
	if err != nil || resp.Worker != primary.id {
		t.Fatalf("baseline: err=%v worker=%q, want %q", err, resp.Worker, primary.id)
	}

	// Graceful exit: the shard re-routes with zero failovers — this is a
	// planned handoff, not a failure.
	if resp, err := co.Do(context.Background(), &server.Request{Op: "deregister", Addr: primary.addr}); err != nil || resp.Status != server.StatusOK {
		t.Fatalf("deregister: %v / %+v", err, resp)
	}
	if st := co.WorkerStates()[primary.addr]; st != "draining" {
		t.Errorf("deregistered worker state = %q, want draining", st)
	}
	resp, err = co.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Worker != secondary.id || resp.Failovers != 0 {
		t.Errorf("after deregister: worker=%q failovers=%d, want %q/0", resp.Worker, resp.Failovers, secondary.id)
	}

	// Rejoin: the ring assignment is address-stable, so the shard comes
	// straight back.
	if resp, err := co.Do(context.Background(), &server.Request{Op: "register", Addr: primary.addr}); err != nil || resp.Status != server.StatusOK {
		t.Fatalf("register: %v / %+v", err, resp)
	}
	resp, err = co.Do(context.Background(), req)
	if err != nil || resp.Worker != primary.id {
		t.Errorf("after re-register: err=%v worker=%q, want %q", err, resp.Worker, primary.id)
	}
}

// TestHealthProbeOpensAndRecovers exercises the probe path against real
// worker death and revival: strikes from failed probes open the breaker
// (removing the worker from routing), the cooldown admits a half-open
// probe, and a revived worker closes it again — all on an injectable
// clock, with the background prober disabled and probe rounds driven
// explicitly.
func TestHealthProbeOpensAndRecovers(t *testing.T) {
	db := instance.ColorDatabase(3)
	mkServer := func() *server.Server {
		return server.New(server.Config{DB: db, RequestTimeout: time.Second})
	}
	s1, s2 := mkServer(), mkServer()
	if err := s1.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := s2.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go s1.Serve()
	go s2.Serve()
	addr1, addr2 := s1.Addr().String(), s2.Addr().String()
	shutdown := func(s *server.Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}
	defer shutdown(s1)

	var clock struct {
		mu  sync.Mutex
		now time.Time
	}
	clock.now = time.Unix(5000, 0)
	advance := func(d time.Duration) {
		clock.mu.Lock()
		clock.now = clock.now.Add(d)
		clock.mu.Unlock()
	}
	cfg := Config{
		DB:             db,
		Workers:        []string{addr1, addr2},
		HealthInterval: -1,
		HealthTimeout:  200 * time.Millisecond,
		DialTimeout:    200 * time.Millisecond,
		FailThreshold:  2,
		Cooldown:       time.Second,
		RequestTimeout: 2 * time.Second,
		now: func() time.Time {
			clock.mu.Lock()
			defer clock.mu.Unlock()
			return clock.now
		},
	}
	co := New(cfg)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		co.Shutdown(ctx)
	}()

	co.checkWorkers()
	states := co.WorkerStates()
	if states[addr1] != "up" || states[addr2] != "up" {
		t.Fatalf("initial probe: states = %v, want both up", states)
	}

	// Kill worker 2 the hard way; two probe rounds strike it out.
	s2.Abort()
	shutdown(s2)
	co.checkWorkers()
	co.checkWorkers()
	if st := co.WorkerStates()[addr2]; st != "down" {
		t.Fatalf("dead worker state after 2 probe rounds = %q, want down", st)
	}

	// Routing excludes it: every query answers from worker 1.
	text := colorQueryText(t, graph.AugmentedPath(4))
	for i := 0; i < 3; i++ {
		resp, err := co.Do(context.Background(), &server.Request{Op: "query", Query: text})
		if err != nil || resp.Status != server.StatusOK {
			t.Fatalf("query with dead replica: %v / %+v", err, resp)
		}
	}

	// Inside the cooldown nothing is probed; past it, the half-open
	// probe finds the worker still dead and re-opens.
	advance(cfg.Cooldown)
	if st := co.WorkerStates()[addr2]; st != "half-open" {
		t.Fatalf("state after cooldown = %q, want half-open", st)
	}
	co.checkWorkers()
	if st := co.WorkerStates()[addr2]; st != "down" {
		t.Fatalf("failed half-open probe left state %q, want down", st)
	}

	// Revive on the same address; the next half-open probe closes it.
	s2 = mkServer()
	var err error
	for deadline := time.Now().Add(5 * time.Second); ; {
		if err = s2.Listen(addr2); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr2, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	go s2.Serve()
	defer shutdown(s2)
	advance(cfg.Cooldown)
	co.checkWorkers()
	if st := co.WorkerStates()[addr2]; st != "up" {
		t.Fatalf("revived worker state = %q, want up", st)
	}
}

func TestLocalFallbackRescuesWhenFleetIsGone(t *testing.T) {
	db := instance.ColorDatabase(3)
	co := New(Config{
		DB:             db,
		HealthInterval: -1,
		LocalFallback:  true,
		RequestTimeout: 5 * time.Second,
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		co.Shutdown(ctx)
	}()

	// The rescue is the one path where the coordinator parses: a text it
	// cannot parse is a parse error there, and counts as no rescue.
	resp, err := co.Do(context.Background(), &server.Request{Op: "query", Query: "query ans(x) :- nosuch(x."})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != server.StatusParseError || resp.Worker != "local" {
		t.Errorf("unparseable rescue: status %s from %q (%s), want parse_error from local", resp.Status, resp.Worker, resp.Error)
	}

	text := colorQueryText(t, graph.AugmentedPath(4))
	resp, err = co.Do(context.Background(), &server.Request{Op: "query", Query: text})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != server.StatusDegraded {
		t.Fatalf("status = %s (%s), want degraded (rescued locally)", resp.Status, resp.Error)
	}
	if resp.Worker != "local" {
		t.Errorf("Worker = %q, want local", resp.Worker)
	}
	if resp.Answer == nil || !resp.Answer.Nonempty {
		t.Fatalf("rescued answer = %+v, want the nonempty 3-coloring", resp.Answer)
	}
	if resp.Stats == nil || len(resp.Stats.Attempts) < 2 {
		t.Fatalf("Stats.Attempts = %+v, want the failed fleet attempt leading a local rung", resp.Stats)
	}
	if a := resp.Stats.Attempts[0]; a.Method != "fleet" || a.Err == "" {
		t.Errorf("Attempts[0] = %+v, want the failed fleet rung with its error", a)
	}
	if h := co.health(); h.Rescued != 1 {
		t.Errorf("health %+v, want 1 rescued", h)
	}
}

func TestUnavailableWithoutFallbackIsTypedAndRetryable(t *testing.T) {
	co := New(Config{
		DB:             instance.ColorDatabase(3),
		HealthInterval: -1,
		RequestTimeout: time.Second,
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		co.Shutdown(ctx)
	}()

	text := colorQueryText(t, graph.AugmentedPath(4))
	resp, err := co.Do(context.Background(), &server.Request{Op: "query", Query: text})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != server.StatusUnavailable {
		t.Fatalf("status = %s, want unavailable", resp.Status)
	}
	se := &client.StatusError{Status: resp.Status, Msg: resp.Error}
	if !client.Retryable(se) {
		t.Error("unavailable must be retryable (workers may rejoin)")
	}
	if h := co.health(); h.Unavailable != 1 {
		t.Errorf("health.Unavailable = %d, want 1", h.Unavailable)
	}
}

// startRecordingWorker starts a Handler-mode worker that answers every
// query and explain OK and records each one it is sent.
func startRecordingWorker(t *testing.T) (*fakeWorker, func() []server.Request) {
	t.Helper()
	var mu sync.Mutex
	var seen []server.Request
	f := &fakeWorker{id: "w-a"}
	f.srv = server.New(server.Config{
		WorkerID: f.id,
		Handler: func(_ context.Context, req *server.Request, remote string) *server.Response {
			if req.Op == "ready" {
				ready := true
				return &server.Response{Status: server.StatusOK, Ready: &ready}
			}
			mu.Lock()
			seen = append(seen, *req)
			mu.Unlock()
			return &server.Response{Status: server.StatusOK, Answer: &server.Answer{}}
		},
	})
	if err := f.srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	f.addr = f.srv.Addr().String()
	go f.srv.Serve()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		f.srv.Shutdown(ctx)
	})
	return f, func() []server.Request {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(seen)
	}
}

// TestAffinityHeaderStampsForwards pins the affinity contract: every
// forward carries the affinity id it was routed on, and the log line says
// which. The id is a function of the named method and the text alone —
// the key of the worker's compile memo — so repeats of a text under any
// op or timeout carry one header, and naming another method on the same
// text is another key.
func TestAffinityHeaderStampsForwards(t *testing.T) {
	f, seen := startRecordingWorker(t)
	var log bytes.Buffer
	co, _ := newTestCoordinator(t, Config{RequestTimeout: 2 * time.Second, Log: &log}, f)

	text := colorQueryText(t, graph.Cycle(5))
	var reqs []*server.Request
	for i, op := range []string{"query", "explain", "query"} {
		reqs = append(reqs, &server.Request{Op: op, Query: text, Timeout: fmt.Sprintf("%dms", 900+i)})
	}
	reqs = append(reqs,
		&server.Request{Op: "query", Query: text, Method: "bucketelimination"},
		&server.Request{Op: "query", Query: text, Method: "yannakakis"})
	for _, req := range reqs {
		if _, err := co.Do(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	got := seen()
	if len(got) != len(reqs) {
		t.Fatalf("worker saw %d forwards, want %d", len(got), len(reqs))
	}
	for i, fwd := range got {
		if fwd.Affinity != affinity(reqs[i]) || len(fwd.Affinity) != 16 {
			t.Errorf("forward %d: affinity %q, want the 16-hex id %q", i, fwd.Affinity, affinity(reqs[i]))
		}
	}
	if got[1].Affinity != got[0].Affinity || got[2].Affinity != got[0].Affinity {
		t.Errorf("repeats of one text under other ops and timeouts moved: %q %q %q", got[0].Affinity, got[1].Affinity, got[2].Affinity)
	}
	if got[3].Affinity == got[0].Affinity || got[4].Affinity == got[3].Affinity {
		t.Errorf("named methods share the methodless key: %q %q %q", got[0].Affinity, got[3].Affinity, got[4].Affinity)
	}

	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) != len(reqs) {
		t.Fatalf("%d log lines, want %d: %s", len(lines), len(reqs), log.String())
	}
	for i, line := range lines {
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if entry["affinity"] != got[i].Affinity {
			t.Errorf("log line %d: affinity %v, want %s", i, entry["affinity"], got[i].Affinity)
		}
		if _, ok := entry["compiled"]; ok {
			t.Errorf("log line %d: the coordinator compiles nothing, but logs %v", i, entry["compiled"])
		}
	}
}

// TestRelBlockTextIsForwardedUnparsed pins that routing reads no query: a
// text carrying its own rel blocks reaches the worker byte for byte, and
// its affinity id costs the same allocations as a one-line text's (the
// hex id), where a parse would allocate per tuple.
func TestRelBlockTextIsForwardedUnparsed(t *testing.T) {
	f, seen := startRecordingWorker(t)
	co, _ := newTestCoordinator(t, Config{RequestTimeout: 2 * time.Second}, f)

	var text strings.Builder
	text.WriteString("rel r {\n")
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&text, "  %d %d\n", i, i+1)
	}
	text.WriteString("}\nquery ans(x) :- r(x, y), r(y, z).\n")
	req := &server.Request{Op: "query", Query: text.String()}
	resp, err := co.Do(context.Background(), req)
	if err != nil || resp.Status != server.StatusOK {
		t.Fatalf("forward: %v / %+v", err, resp)
	}
	if got := seen(); len(got) != 1 || got[0].Query != req.Query {
		t.Fatalf("worker saw %d forwards, want the text unchanged", len(got))
	}
	short := &server.Request{Op: "query", Query: "query ans(x) :- r(x, y)."}
	if long, one := testing.AllocsPerRun(20, func() { affinity(req) }), testing.AllocsPerRun(20, func() { affinity(short) }); long != one {
		t.Errorf("affinity allocates %v times on a %d-byte text and %v on a one-line one", long, len(req.Query), one)
	}
}

// TestUnparseableTextIsTheWorkersParseError pins where a malformed text
// fails: the coordinator forwards it like any other and relays the
// worker's parse_error — terminal, so no failover.
func TestUnparseableTextIsTheWorkersParseError(t *testing.T) {
	fl, err := StartFleet("127.0.0.1:0", FleetConfig{
		Workers:       2,
		Worker:        server.Config{DB: instance.ColorDatabase(3), RequestTimeout: 2 * time.Second},
		Coordinator:   Config{RequestTimeout: 2 * time.Second},
		ChaosInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	resp, err := fl.Coordinator().Do(context.Background(), &server.Request{Op: "query", Query: "query ans(x) :- edge(x, y"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != server.StatusParseError || resp.Failovers != 0 || resp.Worker == "" || resp.Worker == "local" {
		t.Errorf("status %s from %q after %d failovers (%s), want a worker's parse_error and 0 failovers",
			resp.Status, resp.Worker, resp.Failovers, resp.Error)
	}
	if h := fl.Coordinator().health(); h.Failovers != 0 || h.Failed != 1 {
		t.Errorf("coordinator health %+v, want 0 failovers and 1 failed", h)
	}
}

// TestHash64ReadsItsKeyInPlace pins the ring hash: FNV-64a through the
// splitmix64 finalizer, the same value as hash/fnv's in every process, so
// ring points and a key's shard do not move, and no copy of the key.
func TestHash64ReadsItsKeyInPlace(t *testing.T) {
	key := strings.Repeat("query ans(x) :- edge(x, y). ", 100)
	if n := testing.AllocsPerRun(100, func() { hash64(key) }); n != 0 {
		t.Errorf("hash64 allocates %v times per call, want 0", n)
	}
	for _, k := range []string{"", "a", "127.0.0.1:7434#63", key} {
		h := fnv.New64a()
		h.Write([]byte(k))
		x := h.Sum64()
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if got := hash64(k); got != x {
			t.Errorf("hash64(%.20q) = %016x, want %016x", k, got, x)
		}
	}
}
