package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/cqparse"
	"projpush/internal/engine"
	"projpush/internal/plan"
	"projpush/internal/server"
	"projpush/internal/treedec"
)

// span is one timed call into a layer. Start and End are nanoseconds
// since the replay began; Parent indexes the span that caused this one
// (-1 for a request's root); spans of one request share Request.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// tracer records spans in memory. With on false begin and end do
// nothing, which is the untraced side of the overhead measurement.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, request int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Request: request, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i >= 0 {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// The layer span names; each is also the stem of a per-layer metric.
const (
	spanRequest     = "request"
	spanParse       = "cqparse.parse"
	spanPlan        = "core.plan"
	spanAdmit       = "server.admit_width"
	spanFingerprint = "server.fingerprint"
	spanExec        = "engine.exec"
	spanEncode      = "server.encode"
	spanDecode      = "client.decode"
	spanAffinity    = "cluster.affinity"
)

// serverOptions is the engine.Options a default projpushd executes
// under (-maxrows 10000000 -membudget 256).
var serverOptions = engine.Options{MaxRows: 10_000_000, MaxBytes: 256 << 20}

// replayRequest runs one request in process through each layer's public
// functions, in the order handleQuery calls them, with the route the
// wire verdict named. It returns the decoded response, as the client
// would have read it.
func replayRequest(t *tracer, req int, text string, verdict *server.Verdict, db cq.Database, fleet bool) (*server.Response, error) {
	ctx := context.Background()
	root := t.begin(spanRequest, -1, req)
	defer t.end(root)

	if fleet {
		// The coordinator parses and plans once more to fingerprint the
		// request for the consistent-hash ring.
		aff := t.begin(spanAffinity, root, req)
		s := t.begin(spanParse, aff, req)
		file, err := cqparse.ParseWith(strings.NewReader(text), db)
		t.end(s)
		if err != nil {
			return nil, err
		}
		s = t.begin(spanPlan, aff, req)
		p, err := core.BuildPlan(core.MethodBucketElimination, file.Query, nil)
		t.end(s)
		if err != nil {
			return nil, err
		}
		server.FingerprintID(p)
		t.end(aff)
	}

	s := t.begin(spanParse, root, req)
	file, err := cqparse.ParseWith(strings.NewReader(text), db)
	t.end(s)
	if err != nil {
		return nil, err
	}
	q, qdb := file.Query, file.DB

	s = t.begin(spanPlan, root, req)
	p, err := core.BuildPlan(core.MethodBucketElimination, q, nil)
	t.end(s)
	if err != nil {
		return nil, err
	}

	// The request log's fingerprint is computed whether or not a log is
	// configured.
	s = t.begin(spanFingerprint, root, req)
	server.FingerprintID(p)
	t.end(s)

	// The public part of the server's assess: plan width and MCS
	// elimination width. The AGM bound and predicted bytes are private
	// and stay in the residual.
	s = t.begin(spanAdmit, root, req)
	_ = plan.Analyze(p).Width
	if jg, elim, err := core.EliminationOrder(q, core.OrderMCS, nil); err == nil {
		_ = treedec.InducedWidth(jg.G, elim)
	}
	t.end(s)

	route := core.Method(verdict.Method)
	if route == core.MethodStream {
		// The stream route re-plans twice more: once in the routing
		// switch and once inside resilience.StreamRung.
		for i := 0; i < 2; i++ {
			s = t.begin(spanPlan, root, req)
			p, err = core.BuildPlan(core.MethodStream, q, nil)
			t.end(s)
			if err != nil {
				return nil, err
			}
		}
	}

	s = t.begin(spanExec, root, req)
	var res *engine.Result
	switch route {
	case core.MethodYannakakis:
		res, err = engine.ExecYannakakisContext(ctx, q, qdb, serverOptions)
	case core.MethodStream:
		res, err = engine.ExecStreamContext(ctx, p, qdb, serverOptions)
	case core.MethodWCOJ:
		res, err = engine.ExecWCOJContext(ctx, q, qdb, serverOptions)
	default:
		res, err = engine.ExecContext(ctx, p, qdb, serverOptions)
	}
	t.end(s)
	if err != nil {
		return nil, err
	}

	var frame bytes.Buffer
	s = t.begin(spanEncode, root, req)
	err = server.WriteFrame(&frame, &server.Response{
		Status:  server.StatusOK,
		Verdict: verdict,
		Stats:   server.StatsOf(&res.Stats),
		Answer:  server.AnswerOf(res),
	})
	t.end(s)
	if err != nil {
		return nil, err
	}

	var resp server.Response
	s = t.begin(spanDecode, root, req)
	err = server.ReadFrame(&frame, &resp)
	t.end(s)
	return &resp, err
}

// traceSummary is the per-layer view of a replay.
type traceSummary struct {
	requests int
	// selfUS and totalUS are mean µs per replayed request by span name:
	// self is the span's duration minus its children's, so self times
	// add up to the request's; total is the span's whole duration.
	selfUS, totalUS map[string]float64
	// execUS is the mean engine.exec µs of the requests on each route.
	execUS map[string]float64
	// overhead is (time with spans on) / (time with spans off) - 1 over
	// the same requests.
	overhead float64
	spans    []span
}

// layersUS is the mean µs per request the replay attributes to layers:
// everything under the request roots.
func (s *traceSummary) layersUS() float64 {
	var sum float64
	for name, us := range s.selfUS {
		if name != spanRequest {
			sum += us
		}
	}
	return sum
}

// replay runs seq through replayRequest twice per request — once with
// span recording on, once off, alternating which goes first — on a
// single goroutine, verifying every decoded answer. It stops at the
// deadline if one is set.
func replay(w *workload, seq []int, run *wireRun, refs []reference, db cq.Database, deadline time.Time) (*traceSummary, error) {
	on := &tracer{on: true, t0: time.Now()}
	off := &tracer{}
	var onTime, offTime time.Duration
	routeOf := make([]string, 0, len(seq))
	for i, q := range seq {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		first := run.perQuery[q].first
		if first == nil {
			return nil, fmt.Errorf("bench: %s: no verified wire answer to take the route from", w.Pool[q].Name)
		}
		order := []*tracer{on, off}
		if i%2 == 1 {
			order[0], order[1] = off, on
		}
		for _, t := range order {
			t0 := time.Now()
			resp, err := replayRequest(t, i, w.Pool[q].Text, first.Verdict, db, w.Fleet > 0)
			d := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("bench: replay %s: %w", w.Pool[q].Name, err)
			}
			if !refs[q].matches(resp.Answer) {
				return nil, fmt.Errorf("bench: replay %s: answer differs from the reference", w.Pool[q].Name)
			}
			if t.on {
				onTime += d
			} else {
				offTime += d
			}
		}
		routeOf = append(routeOf, first.Verdict.Method)
	}
	n := len(routeOf)
	if n == 0 {
		return nil, fmt.Errorf("bench: %s: nothing replayed", w.Name)
	}

	sum := &traceSummary{
		requests: n, spans: on.spans,
		selfUS: map[string]float64{}, totalUS: map[string]float64{}, execUS: map[string]float64{},
		overhead: float64(onTime)/float64(offTime) - 1,
	}
	self := make([]int64, len(on.spans))
	for i, sp := range on.spans {
		self[i] += sp.End - sp.Start
		if sp.Parent >= 0 {
			self[sp.Parent] -= sp.End - sp.Start
		}
	}
	routeN := map[string]int{}
	for _, r := range routeOf {
		routeN[r]++
	}
	for i, sp := range on.spans {
		sum.selfUS[sp.Name] += float64(self[i]) / 1e3 / float64(n)
		sum.totalUS[sp.Name] += float64(sp.End-sp.Start) / 1e3 / float64(n)
		if sp.Name == spanExec {
			r := routeOf[sp.Request]
			sum.execUS[r] += float64(self[i]) / 1e3 / float64(routeN[r])
		}
	}
	return sum, nil
}

// replaySequence is the request list of the traced run: the clients'
// sequences interleaved, as the server saw them arrive.
func replaySequence(w *workload, seed int64, n int) []int {
	samplers := make([]*sampler, clients)
	for c := range samplers {
		samplers[c] = w.sampler(seed, c)
	}
	seq := make([]int, n)
	for i := range seq {
		seq[i] = samplers[i%clients].next()
	}
	return seq
}
