package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/faultinject"
	"projpush/internal/memo"
	"projpush/internal/plan"
)

// Config configures a Server. The zero value of every bound means
// "use the default", documented per field.
type Config struct {
	// DB is the server-resident database queries are answered over.
	// Requests may carry rel blocks that extend or shadow it per
	// request.
	DB cq.Database
	// MaxWidth rejects queries whose chosen plan's width (maximum
	// intermediate arity) exceeds it (0 = no width threshold).
	MaxWidth int
	// MaxAGMLog2 rejects queries whose AGM output bound exceeds
	// 2^MaxAGMLog2 rows (0 = no AGM threshold).
	MaxAGMLog2 float64
	// MaxPredictedBytes rejects queries whose predicted peak live bytes
	// (the referenced base relations' combined footprint — what a
	// streaming run can hold resident at once) exceed it (0 = no
	// threshold).
	MaxPredictedBytes int64
	// MaxConcurrent bounds concurrently executing requests (default 4).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an execution slot; arrivals
	// beyond slots+queue are shed immediately (default 2*MaxConcurrent).
	MaxQueue int
	// QueueWait bounds the time a request may wait for a slot before
	// being shed (default 1s) — the tail-latency bound under overload.
	QueueWait time.Duration
	// RequestTimeout is the per-request execution deadline (default
	// 10s). Requests may tighten it, never extend it.
	RequestTimeout time.Duration
	// MaxRows and MaxBytes bound each execution (engine.Options).
	MaxRows  int
	MaxBytes int64
	// Log, when non-nil, receives one structured JSON line per request
	// (fingerprint, admission verdict, status, attempts, bytes).
	Log io.Writer
	// WorkerID, when non-empty, identifies this server as a fleet member:
	// it is stamped on every response (Response.Worker) and on the health
	// payload, so coordinators and load generators can attribute
	// outcomes per worker.
	WorkerID string
	// Handler, when non-nil, replaces the built-in query lifecycle:
	// every request (any op) is dispatched to it under the same
	// connection handling, panic isolation, and in-flight accounting.
	// ctx is canceled when the requesting connection's peer disconnects
	// mid-request (and when the connection closes), so long-running
	// handlers — the cluster coordinator's fan-out in particular — stop
	// instead of running to their full timeout for a client that is
	// gone. The cluster coordinator fronts a worker fleet this way,
	// reusing the accept loop, network fault points, and graceful drain
	// without duplicating them.
	Handler func(ctx context.Context, req *Request, remote string) *Response

	// maxFrame is the response frame cap (MaxFrame), injectable in tests.
	maxFrame int
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 2 * c.MaxConcurrent
	}
	if c.QueueWait <= 0 {
		c.QueueWait = time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.maxFrame == 0 {
		c.maxFrame = MaxFrame
	}
	return c
}

// Server is a long-running query service over one database.
type Server struct {
	cfg Config
	lim *limiter

	ln       net.Listener
	draining atomic.Bool

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	wg       sync.WaitGroup // connection handlers
	inFlight atomic.Int64   // requests currently being handled

	// compiled is the front end's memo: query text and named method to
	// everything compile derives from them.
	compiled *memo.Memo[*compiled]

	// counters for the health endpoint
	served, degraded, shed, overWidth, failed atomic.Int64

	logMu sync.Mutex
}

// New returns an unstarted server; call Listen then Serve.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:      cfg,
		lim:      newLimiter(cfg.MaxConcurrent, cfg.MaxQueue),
		conns:    make(map[net.Conn]struct{}),
		compiled: memo.New[*compiled](compiledBudget),
	}
}

// Listen binds the server to addr ("127.0.0.1:0" picks a free port).
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// Addr returns the bound address (after Listen).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Draining reports whether Shutdown or Abort has begun: readiness is
// false and new queries are refused.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlightRequests returns the number of requests currently being
// handled, so a Handler-mode front end (the cluster coordinator) can
// report the same in_flight gauge the built-in health endpoint does.
func (s *Server) InFlightRequests() int64 { return s.inFlight.Load() }

// Serve accepts connections until the listener is closed (Shutdown). It
// returns nil on a clean shutdown. Each connection gets its own handler
// goroutine with panic isolation: a fault in one connection can never
// take down the process or its sibling connections.
func (s *Server) Serve() error {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		if faultinject.FailAlloc(faultinject.AcceptFail) {
			c.Close()
			continue
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(c)
	}
}

// Shutdown drains the server: readiness flips false first, the listener
// closes, in-flight requests get until ctx's deadline to finish, then
// every connection is force-closed and the handlers joined — the idle
// ones clients keep included; such a client redials on its next call. It
// is safe to call once; requests arriving on a surviving connection
// during the drain are answered StatusDraining.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	// Drain: wait for in-flight requests, bounded by ctx.
	drained := ctx.Err() == nil
	for drained && s.inFlight.Load() > 0 {
		select {
		case <-ctx.Done():
			drained = false
		case <-time.After(time.Millisecond):
		}
	}
	// Force-close every connection; idle handlers blocked in ReadFrame
	// unblock with an error and exit.
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	if !drained {
		return fmt.Errorf("server: drain deadline expired with %d requests in flight", s.inFlight.Load())
	}
	return nil
}

// Abort hard-stops the server without draining: the listener and every
// live connection close immediately, exactly as a crashed or OOM-killed
// process would look to its peers. In-flight handler goroutines keep
// running until their execution finishes and their response write fails;
// call Shutdown afterwards to join them. Worker-loss chaos drills use
// Abort as the kill primitive.
func (s *Server) Abort() {
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

// handleConn serves one connection's request/response loop; clients keep
// their connections, so another request usually follows. Each request is
// handled under a context canceled when the peer hangs up: while it is in
// flight, a watcher goroutine blocks in Peek on the connection's buffered
// reader — the only bytes that can legally arrive there are the next
// request's, so a read error means the client is gone (it closes the
// connection of an attempt it abandons) and the in-flight work (a
// coordinator fan-out, an execution) should stop rather than run out its
// timeout. The watcher doubles as the idle wait between requests: it
// returns exactly when ReadFrame would unblock, and is always joined
// before the next read (bufio.Reader is not concurrency-safe) and before
// the handler exits (the drain's goroutine-leak guarantee).
func (s *Server) handleConn(c net.Conn) {
	defer s.wg.Done()
	var watchDone chan struct{}
	defer func() {
		// Connection-level panic isolation: a handler bug kills this
		// connection only, never the process.
		if r := recover(); r != nil {
			s.logLine(map[string]any{"event": "conn_panic", "remote": c.RemoteAddr().String(), "panic": fmt.Sprint(r)})
		}
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
		if watchDone != nil {
			<-watchDone // Peek unblocked by the Close above
		}
	}()
	connCtx, cancelConn := context.WithCancel(context.Background())
	defer cancelConn()
	br := bufio.NewReader(c)
	remote := c.RemoteAddr().String()
	for {
		// Read-side network fault points, the receive twins of
		// ConnDrop/SlowWrite: a failed read severs the connection before
		// the next request is consumed, a slow read stalls the inbound
		// path ahead of the frame.
		if faultinject.FailAlloc(faultinject.ConnReadFail) {
			return // defer closes the socket under the peer
		}
		faultinject.Sleep(faultinject.SlowRead)
		var req Request
		if err := ReadFrame(br, &req); err != nil {
			return // EOF, torn frame, or force-close during drain
		}
		rctx, cancelReq := context.WithCancel(connCtx)
		watchDone = make(chan struct{})
		go func(cancel context.CancelFunc) {
			defer close(watchDone)
			if _, err := br.Peek(1); err != nil {
				cancel()
			}
		}(cancelReq)
		if err := s.serveRequest(rctx, c, &req, remote); err != nil {
			return // defer closes the socket and joins the watcher
		}
		<-watchDone // next request's first byte arrived, or the peer left
		cancelReq()
		watchDone = nil
	}
}

// serveRequest handles one request and writes its response. The request
// counts as in flight until the response is written: a drain that only
// waited for the handler could close the connection under the write and
// lose an answer that was already computed.
func (s *Server) serveRequest(ctx context.Context, c net.Conn, req *Request, remote string) error {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	return s.writeResponse(c, s.handleRequest(ctx, req, remote))
}

// writeResponse writes one frame through the network fault-injection
// points: a dropped connection abandons the response, a slow write
// tears the frame in two around the configured latency. An answer too
// large for one frame is refused, not dropped: the client gets a typed
// terminal resource_limit on a connection that stays open, instead of
// an EOF it would classify as a transport fault and retry by running
// the same query again.
func (s *Server) writeResponse(c net.Conn, resp *Response) error {
	if faultinject.FailAlloc(faultinject.ConnDrop) {
		c.Close()
		return fmt.Errorf("server: injected connection drop")
	}
	var w io.Writer = c
	if delay, ok := faultinject.Latency(faultinject.SlowWrite); ok {
		w = tornWriter{c: c, delay: delay}
	}
	err := writeFrame(w, resp, s.cfg.maxFrame)
	if errors.Is(err, ErrFrameTooLarge) {
		s.failed.Add(1)
		s.logLine(map[string]any{"event": "frame_too_large", "remote": c.RemoteAddr().String(), "error": err.Error()})
		err = writeFrame(w, &Response{
			Status: StatusResourceLimit, Error: err.Error(),
			Verdict: resp.Verdict, Stats: resp.Stats, Worker: resp.Worker,
		}, s.cfg.maxFrame)
	}
	return err
}

// tornWriter splits each write in half around a delay, modelling a
// congested or faulty network path.
type tornWriter struct {
	c     net.Conn
	delay time.Duration
}

func (t tornWriter) Write(p []byte) (int, error) {
	half := len(p) / 2
	n, err := t.c.Write(p[:half])
	if err != nil {
		return n, err
	}
	if t.delay > 0 {
		time.Sleep(t.delay)
	}
	m, err := t.c.Write(p[half:])
	return n + m, err
}

// handleRequest dispatches one request with request-level panic
// isolation: a panic is converted into a StatusInternal response and the
// connection keeps serving.
func (s *Server) handleRequest(ctx context.Context, req *Request, remote string) (resp *Response) {
	defer func() {
		if r := recover(); r != nil {
			s.failed.Add(1)
			resp = &Response{Status: StatusInternal, Error: fmt.Sprintf("request handler panic: %v", r)}
		}
		if resp != nil && resp.Worker == "" && s.cfg.WorkerID != "" {
			resp.Worker = s.cfg.WorkerID
		}
		if resp != nil && resp.Health != nil {
			// Here, so a Handler-mode front (the coordinator) reports it too.
			s.mu.Lock()
			resp.Health.OpenConns = len(s.conns)
			s.mu.Unlock()
		}
	}()
	if s.cfg.Handler != nil {
		return s.cfg.Handler(ctx, req, remote)
	}
	switch req.Op {
	case "health":
		return &Response{Status: StatusOK, Health: s.health()}
	case "ready":
		ready := !s.draining.Load()
		return &Response{Status: StatusOK, Ready: &ready}
	case "query", "explain":
		return s.handleQuery(ctx, req, remote)
	default:
		return &Response{Status: StatusError, Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// health snapshots the counters.
func (s *Server) health() *Health {
	h := &Health{
		Ready:     !s.draining.Load(),
		Worker:    s.cfg.WorkerID,
		InFlight:  s.inFlight.Load(),
		Served:    s.served.Load(),
		Degraded:  s.degraded.Load(),
		Shed:      s.shed.Load(),
		OverWidth: s.overWidth.Load(),
		Failed:    s.failed.Load(),
	}
	m := s.compiled.Stats()
	h.CompiledHits, h.CompiledMisses, h.CompiledEntries = m.Hits, m.Misses, m.Entries
	for _, rel := range s.cfg.DB {
		h.ResidentIndexBytes += rel.ResidentIndexBytes()
	}
	return h
}

// handleQuery is the per-request lifecycle: compile (a lookup for a text
// seen before), then explain — or gate, run down the ladder, classify —
// and log. Everything the query text decides is compile's; what is left
// here depends on the moment: the drain, the queue, the deadline, the
// data. reqCtx is the connection's per-request context: a peer disconnect
// cancels the queue wait and the execution instead of holding a slot for a
// client that is gone.
func (s *Server) handleQuery(reqCtx context.Context, req *Request, remote string) *Response {
	start := time.Now()
	// logEntry stays nil without a log, so an unlogged request builds no
	// fields.
	var logEntry logFields
	if s.cfg.Log != nil {
		logEntry = logFields{"op": req.Op, "remote": remote}
		defer func() {
			logEntry["elapsed_us"] = time.Since(start).Microseconds()
			s.logLine(logEntry)
		}()
	}
	finish := func(r *Response) *Response {
		logEntry.set("status", string(r.Status))
		if r.Error != "" {
			logEntry.set("error", r.Error)
		}
		return r
	}

	if s.draining.Load() {
		s.shed.Add(1)
		return finish(&Response{Status: StatusDraining, Error: "server is draining"})
	}

	c, hit := s.compile(req.Query, req.Method)
	if logEntry != nil {
		logEntry["compiled"] = memo.Outcome(hit)
		for k, v := range c.log {
			logEntry[k] = v
		}
		if req.Affinity != "" {
			// Coordinator-stamped affinity header: lets the log audit that
			// consistent-hash routing keeps a text's requests, and so its
			// compile memo entry, on this shard.
			logEntry["affinity"] = req.Affinity
		}
	}
	if c.status != "" {
		if c.status == StatusOverWidth {
			s.overWidth.Add(1)
		} else {
			s.failed.Add(1)
		}
		return finish(&Response{Status: c.status, Error: c.err, Verdict: c.verdict})
	}
	if req.Op == "explain" {
		text, err := c.strategy.Explain(c.db, engine.Options{}, false)
		if err != nil {
			s.failed.Add(1)
			return finish(&Response{Status: StatusError, Error: err.Error()})
		}
		return finish(&Response{Status: StatusOK, Explain: routeLine(c.method, c.reason, c.verdict) + text, Verdict: c.verdict})
	}

	// Concurrency gate: bounded queue, bounded wait, typed shedding.
	queueCtx, cancelQueue := context.WithTimeout(reqCtx, s.cfg.QueueWait)
	err := s.lim.acquire(queueCtx)
	cancelQueue()
	if err != nil {
		logEntry.set("verdict", "shed")
		s.shed.Add(1)
		return finish(&Response{Status: StatusShed, Error: err.Error(), Verdict: c.verdict})
	}
	defer s.lim.release()

	timeout := s.cfg.RequestTimeout
	if req.Timeout != "" {
		if d, perr := time.ParseDuration(req.Timeout); perr == nil && d > 0 && d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(reqCtx, timeout)
	defer cancel()
	opt := engine.Options{MaxRows: s.cfg.MaxRows, MaxBytes: s.cfg.MaxBytes}

	// Execute: the compiled strategy first, and on a degradable failure
	// the ladder that goes with it re-plans with safer methods.
	res, err := engine.ExecResilientStrategy(ctx, c.strategy, c.ladder(), c.db, opt)

	resp := &Response{Verdict: c.verdict}
	if res != nil {
		resp.Stats = StatsOf(&res.Stats)
		logEntry.set("bytes", res.Stats.Bytes)
		logEntry.set("attempts", len(res.Stats.Attempts))
		if at := res.Stats.Attempts; logEntry != nil && len(at) > 1 {
			// Which route failed and what answered instead, in order.
			rungs := make([]string, len(at))
			for i, a := range at {
				rungs[i] = a.Method
			}
			logEntry["rungs"] = rungs
		}
	}
	if err != nil {
		resp.Status, resp.Error = ClassifyStatus(err), err.Error()
		s.failed.Add(1)
		return finish(resp)
	}
	resp.Status = StatusOK
	if len(res.Stats.Attempts) > 1 {
		resp.Status = StatusDegraded
		s.degraded.Add(1)
	}
	s.served.Add(1)
	resp.Answer = AnswerOf(res)
	logEntry.set("rows", resp.Answer.Rows)
	return finish(resp)
}

// The route's thresholds beside the full reducer's
// (engine.DefaultYannakakisWidth, which the degradation ladder reads too).
// They are constants: the query's structure decides its route, and no
// server setting does.
const (
	// agmMinWidth is the MCS elimination width above which a query with a
	// small AGM bound runs as one leapfrog join. Below it bucket
	// elimination's plan keeps a bounded worst case the join lacks: on 76
	// width 4–6 3-COLOR texts with 10–30 % of their vertices free and an
	// AGM bound under 2^24, the join ran up to 4.3× slower than the plan
	// (the augmented path of order 9 at 30 % free: 0.08 → 0.35 ms).
	agmMinWidth = 6
	// wcojAGMLog2 is the log2 AGM output bound up to which a query wider
	// than agmMinWidth runs as one leapfrog join, and up to which a query
	// whose only violation is MaxWidth is admitted anyway (assess): 2^24
	// ≈ 16M output rows fits a request's budget, while the width of such
	// queries (cliques, dense k-COLOR) grows without bound.
	wcojAGMLog2 = 24
)

// route picks the executor for an admitted request, the plan it runs, and
// the reason (the request log's route_reason). A request that named a
// method gets that method and inHand, its plan. Otherwise inHand is the
// MCS bucket-elimination plan admission measured, and the size-only rule
// goes first: the arm sizeRule found (Verdict.arm, none for an acyclic
// query) sends a cyclic query to one leapfrog join, whatever its width.
// no_gain_from_decomposition: its whole AGM bound is within its widest
// bag's, which every join-tree plan still builds (the triangle, the
// 4-cycle, the cliques). free_vars_under_bag: a bag's existential
// variables outweigh its free ones, so the join's free prefix enumerates
// less than that bag holds while its existential levels stop at a first
// witness (the Boolean Figure 7–9 families, wheels, random graphs); it
// runs under a seek budget with the cascade's pick behind it (budgeted).
// Below the rule the threshold cascade picks the executor; its default
// tier alone runs a plan, the narrowest bucket-elimination one, and only
// there are the min-fill and min-degree orders computed, because they
// cost several times what MCS does.
func route(named core.Method, q *cq.Query, inHand core.Candidate, v *Verdict) (core.Method, core.Candidate, string, error) {
	switch {
	case named != "":
		return named, inHand, "named", nil
	case v.arm == noGainArm:
		return core.MethodWCOJ, inHand, "no_gain_from_decomposition", nil
	case v.arm == freeVarsArm:
		return core.MethodWCOJ, inHand, "free_vars_under_bag", nil
	}
	m, reason := cascade(v)
	if m != core.MethodBucketElimination {
		return m, inHand, reason, nil
	}
	c, err := core.NarrowestBucketElimination(q, inHand)
	return m, c, reason, err
}

// cascade is route's threshold cascade: the executor from the verdict's
// static quantities — narrow queries run the Yannakakis full reducer, wide
// queries with a small output bound the leapfrog join, the rest the
// narrowest bucket-elimination plan in reach, never one wider than the
// admitted plan (width decides intermediate size, paper Figures 3–5) —
// and the reason.
func cascade(v *Verdict) (core.Method, string) {
	switch {
	case v.AdmittedOnAGM:
		// Over-width but the output bound is small: only the
		// worst-case-optimal executor can honor that admission.
		return core.MethodWCOJ, "agm"
	case v.ElimWidth <= engine.DefaultYannakakisWidth:
		return core.MethodYannakakis, "narrow"
	case v.ElimWidth > agmMinWidth && v.AGMLog2 <= wcojAGMLog2:
		// Wide, but the AGM bound is small — the cyclic-query shape the
		// leapfrog join exists for.
		return core.MethodWCOJ, "agm"
	}
	return core.MethodBucketElimination, "default"
}

// ClassifyStatus maps an engine failure to its wire status.
func ClassifyStatus(err error) Status {
	switch {
	case errors.Is(err, engine.ErrTimeout):
		return StatusTimeout
	case errors.Is(err, engine.ErrCanceled):
		return StatusCanceled
	case errors.Is(err, engine.ErrRowLimit), errors.Is(err, engine.ErrMemLimit), errors.Is(err, engine.ErrWorkLimit):
		return StatusResourceLimit
	case errors.Is(err, engine.ErrInternal):
		return StatusInternal
	default:
		return StatusError
	}
}

// AnswerOf makes a result relation an answer without copying it: at arity
// ≥ 1 the answer keeps the relation, only reads it (a zero-copy rename may
// share its arena with a base relation), and WriteFrame writes the arena
// as the tuple block, in the executor's row order; Tuples stay nil.
func AnswerOf(res *engine.Result) *Answer {
	rel := res.Rel
	attrs := make([]int, len(rel.Attrs()))
	for i, a := range rel.Attrs() {
		attrs[i] = int(a)
	}
	ans := &Answer{Attrs: attrs, Nonempty: rel.Len() > 0, Rows: rel.Len(), rel: rel}
	if rel.Arity() == 0 && rel.Len() > 0 {
		ans.rel, ans.Tuples = nil, [][]int32{{}} // "true" travels as JSON
	}
	return ans
}

// StatsOf converts engine stats for the wire.
func StatsOf(st *engine.Stats) *RunStats {
	rs := &RunStats{
		MaxRows:      st.MaxRows,
		MaxArity:     st.MaxArity,
		Tuples:       st.Tuples,
		Bytes:        st.Bytes,
		PeakBytes:    st.PeakBytes,
		Joins:        st.Joins,
		Projections:  st.Projections,
		Materialized: st.MaterializedTuples,
		Reduced:      st.ReducedTuples,
		Seeks:        st.Seeks,
		Extensions:   st.Extensions,
		ElapsedUS:    st.Elapsed.Microseconds(),
	}
	for _, a := range st.Attempts {
		rs.Attempts = append(rs.Attempts, AttemptInfo{Method: a.Method, Err: a.Err})
	}
	return rs
}

// FingerprintID hashes a plan's renaming-invariant fingerprint to a
// short stable id for the request log.
func FingerprintID(p plan.Node) string {
	fp := plan.Fingerprint(p)
	h := fnv.New64a()
	io.WriteString(h, fp)
	return fmt.Sprintf("%016x", h.Sum64())
}

// routeLine is the first line of an explain: the route, why it was taken,
// and the static quantities the choice was made from.
func routeLine(method core.Method, reason string, v *Verdict) string {
	return fmt.Sprintf("route: %s (%s)  elim_width=%d agm_log2=%.2f bag_agm_log2=%s free_agm_log2=%s plan_agm_log2=%s\n",
		method, reason, v.ElimWidth, v.AGMLog2, log2OrNot(v.BagAGMLog2), log2OrNot(v.FreeAGMLog2), log2OrNot(v.PlanAGMLog2))
}

// log2OrNot renders a bound the size-only rule may not have computed.
func log2OrNot(b *float64) string {
	if b == nil {
		return "not computed"
	}
	return fmt.Sprintf("%.2f", *b)
}

// runsPlan reports whether the method's executor runs a plan: the full
// reducer and the leapfrog join work from the query itself.
func runsPlan(m core.Method) bool {
	return m != core.MethodYannakakis && m != core.MethodWCOJ
}

// logFields is one request-log line under construction; nil when the
// server has no log.
type logFields map[string]any

// set records a field unless the line is not being built.
func (f logFields) set(key string, value any) {
	if f != nil {
		f[key] = value
	}
}

// logLine emits one JSON log line (best effort, serialized).
func (s *Server) logLine(fields map[string]any) {
	if s.cfg.Log == nil {
		return
	}
	fields["ts"] = time.Now().UTC().Format(time.RFC3339Nano)
	line, err := json.Marshal(fields)
	if err != nil {
		return
	}
	s.logMu.Lock()
	s.cfg.Log.Write(append(line, '\n'))
	s.logMu.Unlock()
}
