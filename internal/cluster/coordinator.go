// Package cluster is projpushd's fault-tolerant distribution layer: a
// coordinator that fronts a fleet of projpushd workers over the existing
// length-prefixed protocol and keeps answering — correctly and with typed
// outcomes — while individual workers die, flap, and rejoin.
//
// Routing is consistent hashing by a request's named method and text, the
// key of a worker's compile memo, so every repeat of a text lands on the
// worker that already compiled it (reported as compiled_hits in its
// health); the coordinator parses nothing on the way. A membership change
// remaps only the dead worker's shard. Around
// that sit the failure-domain mechanisms: per-worker health probing with
// a breaker-style state machine (closed → open → half-open), failover
// down the ring with the remaining deadline propagated to each attempt,
// optional hedged requests against the next replica after a p95-based
// delay, graceful worker deregistration, and — when every replica for a
// shard is down — a local degraded execution through the engine's
// resilience ladder, reported as StatusDegraded rather than silently
// masquerading as a healthy answer.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"projpush/internal/cq"
	"projpush/internal/cqparse"
	"projpush/internal/engine"
	"projpush/internal/jointree"
	"projpush/internal/resilience"
	"projpush/internal/server"
	"projpush/internal/server/client"
)

// latencyWindow is the size of the sliding success-latency sample the
// hedge delay is computed from.
const latencyWindow = 256

// Config configures a Coordinator. The zero value of every bound means
// "use the default", documented per field.
type Config struct {
	// DB is the coordinator's copy of the database, which a LocalFallback
	// rescue parses and executes the request against.
	DB cq.Database
	// Workers seeds the fleet membership (worker TCP addresses). Workers
	// may also join and leave at runtime via the register/deregister ops.
	Workers []string
	// Vnodes is the virtual-node count per worker on the hash ring
	// (default 64).
	Vnodes int
	// Hedge arms hedged requests: when the first replica has not answered
	// within the p95 of recent successes, a second attempt is fired
	// against the next replica and the first answer wins; the loser is
	// cancelled.
	Hedge bool
	// HedgeFloor is the minimum hedge delay, used directly until enough
	// latencies are observed and as a floor afterwards (default 2ms).
	HedgeFloor time.Duration
	// RequestTimeout is the end-to-end deadline for one coordinated
	// request, spanning every failover and hedge attempt (default 10s).
	// Requests may tighten it, never extend it.
	RequestTimeout time.Duration
	// DialTimeout bounds a dial to a worker, when one is needed (default 1s).
	DialTimeout time.Duration
	// HealthInterval is the health-probe period (default 250ms; negative
	// disables the background prober — tests drive checkWorkers directly).
	HealthInterval time.Duration
	// HealthTimeout bounds each health probe (default 500ms).
	HealthTimeout time.Duration
	// FailThreshold opens a worker's breaker after this many consecutive
	// transport failures (default 2).
	FailThreshold int
	// Cooldown is how long an open worker breaker waits before admitting
	// a half-open trial (default 2s).
	Cooldown time.Duration
	// LocalFallback arms the last resilience rung: when no replica can
	// answer, the coordinator executes the query itself through the
	// engine's degradation ladder and reports StatusDegraded.
	LocalFallback bool
	// MaxRows and MaxBytes bound LocalFallback executions
	// (engine.Options; zero means unbounded, matching the engine).
	MaxRows  int
	MaxBytes int64
	// Log, when non-nil, receives one structured JSON line per forwarded
	// request (affinity id, chosen worker, failovers, hedging, status).
	Log io.Writer

	// now is the breaker/health clock, injectable in tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Vnodes <= 0 {
		c.Vnodes = 64
	}
	if c.HedgeFloor <= 0 {
		c.HedgeFloor = 2 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = time.Second
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 250 * time.Millisecond
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 500 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Coordinator fronts a worker fleet. It embeds a Handler-mode
// server.Server, inheriting the protocol loop, panic isolation, network
// fault points, and graceful drain, and adds routing, health, failover,
// and hedging on top.
type Coordinator struct {
	cfg Config
	srv *server.Server

	mu      sync.Mutex
	ring    *ring
	workers map[string]*worker

	stop     chan struct{}
	stopOnce sync.Once
	healthWG sync.WaitGroup

	// health counters (coordinator-side outcomes)
	served, degraded, shed, overWidth, failed    atomic.Int64
	failovers, hedges, rescued, unavailableCount atomic.Int64

	// sliding window of success latencies for the hedge delay
	latMu   sync.Mutex
	lats    [latencyWindow]time.Duration
	latN    int // total recorded (saturates at window size for reads)
	latNext int // ring index

	logMu sync.Mutex
}

// New returns an unstarted coordinator; call Listen then Serve for TCP
// service, or use Do directly for in-process dispatch.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		ring:    newRing(cfg.Vnodes),
		workers: make(map[string]*worker),
		stop:    make(chan struct{}),
	}
	c.srv = server.New(server.Config{
		RequestTimeout: cfg.RequestTimeout,
		Handler:        c.handle,
	})
	for _, addr := range cfg.Workers {
		c.AddWorker(addr)
	}
	if cfg.HealthInterval > 0 {
		c.healthWG.Add(1)
		go c.healthLoop()
	}
	return c
}

// Listen binds the coordinator's front port.
func (c *Coordinator) Listen(addr string) error { return c.srv.Listen(addr) }

// Addr returns the bound address (after Listen).
func (c *Coordinator) Addr() net.Addr { return c.srv.Addr() }

// Serve accepts client connections until Shutdown.
func (c *Coordinator) Serve() error { return c.srv.Serve() }

// Draining reports whether Shutdown has begun.
func (c *Coordinator) Draining() bool { return c.srv.Draining() }

// Shutdown drains the coordinator: the prober stops, the front listener
// closes, in-flight coordinated requests get until ctx's deadline, and
// the connections kept to every member are released.
// Safe to call without Listen/Serve (in-process coordinators).
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.stopOnce.Do(func() { close(c.stop) })
	c.healthWG.Wait()
	err := c.srv.Shutdown(ctx)
	c.mu.Lock()
	for _, w := range c.workers {
		w.cl.Close()
	}
	c.mu.Unlock()
	return err
}

// AddWorker joins a worker to the fleet (idempotent). A re-added
// draining worker starts a fresh membership and transport; the old
// transport's kept connections are released.
func (c *Coordinator) AddWorker(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[addr]; ok {
		if !w.isDraining() {
			return
		}
		w.cl.Close()
	}
	c.workers[addr] = newWorker(addr, client.Options{
		DialTimeout:    c.cfg.DialTimeout,
		AttemptTimeout: c.cfg.RequestTimeout,
	})
	c.ring.add(addr)
}

// RemoveWorker begins a worker's graceful exit: it leaves the ring
// immediately (new requests re-route to the surviving replicas) and is
// reaped by the prober once its in-flight forwards finish.
func (c *Coordinator) RemoveWorker(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[addr]
	if !ok {
		return
	}
	w.drain()
	c.ring.remove(addr)
}

// WorkerStates snapshots each member's health state, as reported on the
// coordinator's health endpoint.
func (c *Coordinator) WorkerStates() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	out := make(map[string]string, len(c.workers))
	for addr, w := range c.workers {
		out[addr] = w.status(now, c.cfg.Cooldown)
	}
	return out
}

// Do dispatches one request in process — the entry point shared by the
// TCP handler, the experiments harness, and tests. The error is always
// nil: every outcome, including "no healthy worker", is a typed
// response.
func (c *Coordinator) Do(ctx context.Context, req *server.Request) (*server.Response, error) {
	return c.handle(ctx, req, "inproc"), nil
}

// handle is the server.Config.Handler: the coordinator's op dispatch.
// ctx is the per-request context the server derives from the client
// connection, so a peer that disconnects (or a draining front) cancels
// the coordinated fan-out instead of letting it run to the full
// RequestTimeout on dead air.
func (c *Coordinator) handle(ctx context.Context, req *server.Request, remote string) *server.Response {
	switch req.Op {
	case "register":
		if req.Addr == "" {
			return &server.Response{Status: server.StatusError, Error: "register: missing addr"}
		}
		c.AddWorker(req.Addr)
		return &server.Response{Status: server.StatusOK}
	case "deregister":
		if req.Addr == "" {
			return &server.Response{Status: server.StatusError, Error: "deregister: missing addr"}
		}
		c.RemoveWorker(req.Addr)
		return &server.Response{Status: server.StatusOK}
	case "health":
		return &server.Response{Status: server.StatusOK, Health: c.health()}
	case "ready":
		ready := !c.srv.Draining()
		return &server.Response{Status: server.StatusOK, Ready: &ready}
	case "query", "explain":
		return c.coordinate(ctx, req)
	default:
		return &server.Response{Status: server.StatusError, Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// health aggregates the fleet view with the coordinator's own counters.
func (c *Coordinator) health() *server.Health {
	return &server.Health{
		Ready:       !c.srv.Draining(),
		InFlight:    c.srv.InFlightRequests(),
		Served:      c.served.Load(),
		Degraded:    c.degraded.Load(),
		Shed:        c.shed.Load(),
		OverWidth:   c.overWidth.Load(),
		Failed:      c.failed.Load(),
		Workers:     c.WorkerStates(),
		Failovers:   c.failovers.Load(),
		Hedges:      c.hedges.Load(),
		Rescued:     c.rescued.Load(),
		Unavailable: c.unavailableCount.Load(),
	}
}

// coordinate runs one query/explain request through routing, failover,
// hedging, and — if everything remote fails — the local rescue ladder.
func (c *Coordinator) coordinate(ctx context.Context, req *server.Request) *server.Response {
	start := time.Now()
	var logEntry map[string]any // stays nil, and unbuilt, without a log
	if c.cfg.Log != nil {
		logEntry = map[string]any{"op": req.Op}
	}
	resp := c.coordinateInner(ctx, req, logEntry)
	if logEntry != nil {
		logEntry["status"] = string(resp.Status)
		logEntry["worker"] = resp.Worker
		if resp.Failovers > 0 {
			logEntry["failovers"] = resp.Failovers
		}
		if resp.Hedged {
			logEntry["hedged"] = true
		}
		logEntry["elapsed_us"] = time.Since(start).Microseconds()
		c.logLine(logEntry)
	}
	switch resp.Status {
	case server.StatusOK:
		c.served.Add(1)
		c.recordLatency(time.Since(start))
	case server.StatusDegraded:
		c.served.Add(1)
		c.degraded.Add(1)
	case server.StatusShed, server.StatusDraining:
		c.shed.Add(1)
	case server.StatusOverWidth:
		c.overWidth.Add(1)
	case server.StatusUnavailable:
		c.unavailableCount.Add(1)
	default:
		c.failed.Add(1)
	}
	return resp
}

func (c *Coordinator) coordinateInner(ctx context.Context, req *server.Request, logEntry map[string]any) *server.Response {
	if c.srv.Draining() {
		return &server.Response{Status: server.StatusDraining, Error: "coordinator is draining"}
	}
	key := affinity(req)
	if logEntry != nil {
		logEntry["affinity"] = key
	}

	timeout := c.cfg.RequestTimeout
	if req.Timeout != "" {
		if d, perr := time.ParseDuration(req.Timeout); perr == nil && d > 0 && d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	fwd := *req
	fwd.Affinity = key

	resp, who, failovers, hedged, ferr := c.forward(ctx, &fwd, key)
	c.failovers.Add(int64(failovers))
	if resp != nil {
		if resp.Worker == "" {
			resp.Worker = who
		}
		resp.Failovers = failovers
		resp.Hedged = hedged
		return resp
	}
	if ctx.Err() != nil {
		if errors.Is(ctx.Err(), context.Canceled) {
			// Plain cancellation — the caller (or its connection) gave up;
			// not a deadline, and the counters must not call it one.
			return &server.Response{
				Status:    server.StatusCanceled,
				Error:     fmt.Sprintf("%v: request canceled after %d failovers", engine.ErrCanceled, failovers),
				Failovers: failovers,
			}
		}
		return &server.Response{
			Status:    server.StatusTimeout,
			Error:     fmt.Sprintf("%v: fleet deadline expired after %d failovers", engine.ErrTimeout, failovers),
			Failovers: failovers,
		}
	}
	// Every replica for this shard is gone. Rescue locally if armed.
	if c.cfg.LocalFallback && req.Op == "query" {
		return c.rescue(ctx, req, ferr, failovers)
	}
	return &server.Response{
		Status:    server.StatusUnavailable,
		Error:     fmt.Sprintf("no healthy worker for shard %s: %v", key, ferr),
		Failovers: failovers,
	}
}

// affinity is a request's routing key and the Affinity header its forwards
// carry: the FNV-64a hash, in 16 hex digits, of its named method and text.
// Those two strings key a worker's compile memo, so every repeat of a text
// — under any op or timeout — lands on the worker that compiled it.
func affinity(req *server.Request) string {
	h := fnv1a(fnv1a(fnv1a(fnvOffset64, req.Method), "\x00"), req.Query)
	return fmt.Sprintf("%016x", h)
}

// candidates returns the shard's failover sequence: every eligible
// worker in ring order from the affinity id. Health filtering happens
// here, after the walk, so the ring itself stays stable under flapping
// and a recovered worker gets its old shard (and warm compile memo) back.
// Enumeration is deliberately non-claiming: a half-open worker's single
// trial token is claimed only when forward actually launches an attempt
// at it, so listing one as a backup that the primary's answer makes
// moot does not burn the trial and lock the worker out of recovery.
func (c *Coordinator) candidates(key string) []*worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	var out []*worker
	for _, addr := range c.ring.order(key) {
		w := c.workers[addr]
		if w == nil {
			continue
		}
		if w.eligible(now, c.cfg.Cooldown) {
			out = append(out, w)
		}
	}
	return out
}

var errNoWorkers = errors.New("cluster: no healthy workers")

// attemptResult is one replica attempt's outcome.
type attemptResult struct {
	resp  *server.Response
	err   error
	w     *worker
	hedge bool
}

// forward runs the failover/hedging state machine: launch the affinity
// replica, optionally hedge to the next one after the p95 delay, fail
// over down the candidate list on transport errors and failover-worthy
// statuses, and relay the first usable answer. Losing attempts are
// cancelled; their goroutines unblock promptly (the client arms a
// context.AfterFunc read deadline) and drain into the buffered channel.
func (c *Coordinator) forward(ctx context.Context, req *server.Request, key string) (resp *server.Response, who string, failovers int, hedged bool, err error) {
	cands := c.candidates(key)
	if len(cands) == 0 {
		return nil, "", 0, false, errNoWorkers
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan attemptResult, len(cands))
	next, inflight := 0, 0
	// launch claims the next launchable candidate and fires an attempt at
	// it; a half-open candidate whose trial token was claimed elsewhere in
	// the meantime is skipped. Reports whether anything was launched.
	launch := func(hedge bool) bool {
		for next < len(cands) {
			w := cands[next]
			next++
			ok, trial := w.claim(c.cfg.now(), c.cfg.Cooldown)
			if !ok {
				continue
			}
			inflight++
			go func() {
				r, e := c.attempt(actx, w, req, trial)
				results <- attemptResult{resp: r, err: e, w: w, hedge: hedge}
			}()
			return true
		}
		return false
	}
	launch(false)
	var hedgeC <-chan time.Time
	if c.cfg.Hedge && next < len(cands) {
		t := time.NewTimer(c.hedgeDelay())
		defer t.Stop()
		hedgeC = t.C
	}
	lastErr := errNoWorkers
	for inflight > 0 {
		select {
		case r := <-results:
			inflight--
			if r.err == nil || (r.resp != nil && !failoverable(r.err)) {
				// A usable answer: success, or a typed terminal outcome the
				// client must see (parse error, over-width, resource
				// verdict). Cancel any sibling still running.
				return r.resp, r.w.addr, failovers, r.hedge, nil
			}
			lastErr = r.err
			failovers++
			// Launch the next replica only when nothing else is pending: a
			// still-running hedge sibling is already covering the request.
			if inflight == 0 && actx.Err() == nil {
				launch(false)
			}
		case <-hedgeC:
			hedgeC = nil
			if inflight > 0 && launch(true) {
				c.hedges.Add(1)
				hedged = true
			}
		case <-actx.Done():
			return nil, "", failovers, hedged, actx.Err()
		}
	}
	return nil, "", failovers, hedged, lastErr
}

// attempt forwards the request to one worker with the remaining deadline
// propagated: the worker-side execution budget is rewritten to what is
// actually left, so failover retries shrink the budget instead of
// resetting it. Transport failures strike the worker's breaker; typed
// responses (even rejections) count as proof of life. trial marks an
// attempt that claimed the worker's half-open trial token; an attempt
// that ends without proving anything must hand the token back or the
// worker can never be probed or routed to again.
func (c *Coordinator) attempt(ctx context.Context, w *worker, req *server.Request, trial bool) (*server.Response, error) {
	w.inFlight.Add(1)
	defer w.inFlight.Add(-1)
	r := *req
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			if trial {
				w.releaseTrial()
			}
			return nil, context.DeadlineExceeded
		}
		r.Timeout = rem.String()
	}
	resp, err := w.cl.Do(ctx, &r)
	if err == nil {
		w.ok()
		return resp, nil
	}
	var se *client.StatusError
	if errors.As(err, &se) {
		w.ok()
		return resp, err
	}
	if ctx.Err() == nil {
		// A transport failure while our context was still live: the worker
		// really failed us. (Cancellation-induced read errors — a hedge
		// loser, a caller giving up — are not the worker's fault.)
		w.fail(c.cfg.now(), c.cfg.FailThreshold)
	} else if trial {
		// Cancelled mid-trial: the worker proved nothing either way, so
		// the trial token goes back instead of leaking claimed.
		w.releaseTrial()
	}
	return nil, err
}

// failoverable reports whether an attempt outcome warrants trying the
// next replica: transport failures and the statuses a different worker
// could answer differently (shed, draining, isolated internal faults,
// timeouts, unavailable). Terminal verdicts — parse errors, over-width,
// resource limits — are the same on every replica and are relayed.
func failoverable(err error) bool {
	var se *client.StatusError
	if errors.As(err, &se) {
		switch se.Status {
		case server.StatusShed, server.StatusDraining, server.StatusInternal,
			server.StatusTimeout, server.StatusUnavailable:
			return true
		}
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// rescue is the last rung: every replica for the shard is down, so the
// coordinator parses the request — the one place it does — and executes
// it locally through the engine's resilience ladder, led by a RemoteRung
// that replays the fleet failure as a degradable error. The answer comes
// back StatusDegraded with the failed fleet attempt leading
// Stats.Attempts — an honest record of how it was produced.
func (c *Coordinator) rescue(ctx context.Context, req *server.Request, remoteErr error, failovers int) *server.Response {
	resp := &server.Response{Worker: "local", Failovers: failovers}
	file, err := cqparse.ParseWith(strings.NewReader(req.Query), c.cfg.DB)
	var s *jointree.Structure
	if err == nil {
		s, err = jointree.Analyze(file.Query)
	}
	if err != nil {
		resp.Status, resp.Error = server.StatusParseError, err.Error()
		return resp
	}
	fleet := resilience.RemoteRung("fleet", func(context.Context) (*engine.Result, error) {
		return nil, fmt.Errorf("%w: no replica answered: %v", engine.ErrInternal, remoteErr)
	})
	opt := engine.Options{MaxRows: c.cfg.MaxRows, MaxBytes: c.cfg.MaxBytes}
	res, err := engine.ExecResilientStrategy(ctx, fleet, resilience.DegradationLadder(s, nil), file.DB, opt)
	if res != nil {
		resp.Stats = server.StatsOf(&res.Stats)
	}
	if err != nil {
		resp.Status = server.ClassifyStatus(err)
		resp.Error = err.Error()
		return resp
	}
	c.rescued.Add(1)
	resp.Status = server.StatusDegraded
	resp.Answer = server.AnswerOf(res)
	return resp
}

// hedgeDelay is the p95 of the success-latency window, floored at
// HedgeFloor; until the window has a meaningful sample it is the floor
// itself.
func (c *Coordinator) hedgeDelay() time.Duration {
	c.latMu.Lock()
	n := c.latN
	if n > latencyWindow {
		n = latencyWindow
	}
	if n < 8 {
		c.latMu.Unlock()
		return c.cfg.HedgeFloor
	}
	buf := make([]time.Duration, n)
	copy(buf, c.lats[:n])
	c.latMu.Unlock()
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	p95 := buf[(n*95)/100-1]
	if p95 < c.cfg.HedgeFloor {
		p95 = c.cfg.HedgeFloor
	}
	return p95
}

// recordLatency feeds one success latency into the sliding window.
func (c *Coordinator) recordLatency(d time.Duration) {
	c.latMu.Lock()
	c.lats[c.latNext] = d
	c.latNext = (c.latNext + 1) % latencyWindow
	c.latN++
	c.latMu.Unlock()
}

// healthLoop probes every member each interval and reaps drained ones.
func (c *Coordinator) healthLoop() {
	defer c.healthWG.Done()
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.checkWorkers()
		}
	}
}

// checkWorkers runs one probe round: every member that is closed, or
// open with its cooldown elapsed (the half-open trial), gets a ready
// probe; probe transport failures strike the breaker exactly like
// forward failures, so a dead worker goes down within
// FailThreshold*HealthInterval without any query traffic. Draining
// members with no in-flight forwards are reaped.
func (c *Coordinator) checkWorkers() {
	c.mu.Lock()
	type probe struct {
		addr string
		w    *worker
	}
	var probes []probe
	now := c.cfg.now()
	for addr, w := range c.workers {
		if w.isDraining() {
			if w.inFlight.Load() == 0 {
				delete(c.workers, addr)
				c.ring.remove(addr)
				w.cl.Close()
			}
			continue
		}
		if w.admit(now, c.cfg.Cooldown) {
			probes = append(probes, probe{addr, w})
		}
	}
	c.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range probes {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HealthTimeout)
			defer cancel()
			ready, err := w.cl.Ready(ctx)
			if err != nil || !ready {
				// Unreachable, or alive but draining: either way it must
				// not receive forwards.
				w.fail(c.cfg.now(), c.cfg.FailThreshold)
				return
			}
			w.ok()
		}(p.w)
	}
	wg.Wait()
}

// logLine emits one JSON log line (best effort).
func (c *Coordinator) logLine(fields map[string]any) {
	if c.cfg.Log == nil {
		return
	}
	b, err := json.Marshal(fields)
	if err != nil {
		return
	}
	c.logMu.Lock()
	defer c.logMu.Unlock()
	c.cfg.Log.Write(append(b, '\n'))
}
