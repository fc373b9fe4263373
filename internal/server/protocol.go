// Package server is projpushd's serving layer: a long-running TCP query
// service in front of the execution engine. Robustness is the product:
// width-aware admission control (the paper's Theorems 1–2 give a static
// predictor of intermediate blow-up, so hopeless queries are rejected
// before a single tuple is materialized), load shedding behind a bounded
// wait queue, a degradation ladder under every request that re-plans a
// resource abort with a safer method, per-connection panic isolation, and
// a graceful drain on shutdown.
//
// The wire protocol is deliberately dependency-free: each message is one
// frame over a plain TCP connection that may carry any number of
// request/response pairs in sequence:
//
//	4-byte big-endian length | one JSON object | optional tuple block
//
// The length counts everything after the prefix. The JSON object is a
// Request or a Response (see those types for the schema). A Response
// whose answer has tuples of arity ≥ 1 does not carry them as JSON: the
// object leaves answer.tuples out and gains a descriptor,
// "tuple_block":{"rows":R,"arity":A}, and the R×A values follow the
// object's closing brace as little-endian int32 in the executor's row
// order — a relation's arena layout: a server appends its result's arena
// to the frame, a reader copies the block out. An answer is a set: no row
// order is promised; a reader that needs one sorts what it received. The
// block is exactly 4·R·A bytes and ends the frame; a reader checks that
// against the descriptor before it allocates anything.
// Every other frame — each Request, and each Response without tuples or
// with the one empty tuple of a true Boolean answer — is the JSON object
// alone. There is one format: no version field and no negotiation.
package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"projpush/internal/relation"
)

// MaxFrame bounds a single protocol frame. Oversized frames fail the
// read instead of buffering unboundedly, so a malicious or corrupted
// length prefix cannot exhaust server memory.
const MaxFrame = 16 << 20

// ErrFrameTooLarge reports a frame over MaxFrame: WriteFrame refuses to
// build it (nothing is written, so the connection stays usable) and
// ReadFrame refuses to buffer it.
var ErrFrameTooLarge = errors.New("server: frame exceeds MaxFrame")

// Status classifies a response. Every abnormal outcome is typed — a
// client never has to parse error strings to decide whether to retry.
type Status string

const (
	// StatusOK: the query executed; Answer holds the result.
	StatusOK Status = "ok"
	// StatusDegraded: the query executed, but only after the degradation
	// ladder rescued a failed attempt; Answer holds the (equivalent)
	// result and Stats.Attempts the history.
	StatusDegraded Status = "degraded"
	// StatusShed: admission control dropped the request because every
	// execution slot was busy and the wait queue was full or the queue
	// wait expired. Retryable.
	StatusShed Status = "shed"
	// StatusOverWidth: width-aware admission rejected the query — its
	// predicted intermediate arity or AGM output bound exceeds the
	// server's thresholds. Terminal: a retry cannot change the width.
	StatusOverWidth Status = "over_width"
	// StatusTimeout: the per-request execution deadline expired
	// mid-run. Retryable (a less loaded server may finish in time).
	StatusTimeout Status = "timeout"
	// StatusCanceled: the request's context was canceled. Terminal from
	// the server's perspective (the caller asked the run to stop).
	StatusCanceled Status = "canceled"
	// StatusResourceLimit: the run exceeded the row cap or memory budget
	// and the degradation ladder (if enabled) could not rescue it.
	// Terminal: the same limits will fail the same way.
	StatusResourceLimit Status = "resource_limit"
	// StatusInternal: an execution worker panicked; the panic was
	// isolated and the connection survives. Retryable.
	StatusInternal Status = "internal"
	// StatusParseError: the request's query text did not parse or
	// validate against the database. Terminal.
	StatusParseError Status = "parse_error"
	// StatusDraining: the server is shutting down and no longer admits
	// queries. Retryable (against a replica, or after restart).
	StatusDraining Status = "draining"
	// StatusUnavailable: a fleet coordinator found no healthy worker for
	// the request's shard and has no local fallback armed. Retryable
	// (workers may recover or rejoin).
	StatusUnavailable Status = "unavailable"
	// StatusError: any other failure (unknown op, unknown method, plan
	// construction failure). Terminal.
	StatusError Status = "error"
)

// Request is one client message.
type Request struct {
	// Op selects the endpoint: "query" executes, "explain" returns the
	// plan tree and admission verdict without executing, "health"
	// returns server counters, "ready" reports readiness (false while
	// draining).
	Op string `json:"op"`
	// Query is the query text in the cqparse format: a query clause,
	// optionally preceded by rel blocks that extend or shadow the
	// server's database for this request.
	Query string `json:"query,omitempty"`
	// Method optionally names the optimization method (straightforward,
	// earlyprojection, reordering, bucketelimination, yannakakis, stream,
	// wcoj). When empty, the server routes the query by its structure
	// alone: cyclic queries no decomposition helps and wide ones with a
	// small AGM output bound to the worst-case-optimal executor, narrow
	// queries to the Yannakakis full reducer, and the rest to bucket
	// elimination.
	Method string `json:"method,omitempty"`
	// Timeout optionally tightens the per-request execution deadline
	// (a Go duration string); it can never extend the server's cap.
	// A fleet coordinator rewrites it per forwarded attempt to the
	// request's remaining deadline, so failover retries shrink the
	// worker-side budget instead of resetting it.
	Timeout string `json:"timeout,omitempty"`
	// Affinity is the header a fleet coordinator stamps on forwarded
	// requests: the hash of the named method and text it consistent-hashed
	// to pick the worker, so the worker's request log can audit that a
	// text's repeats really land on its shard. Empty on direct requests.
	Affinity string `json:"affinity,omitempty"`
	// Addr is the worker's serving address, for the coordinator ops
	// "register" (join the fleet) and "deregister" (leave gracefully:
	// new requests are re-routed to the remaining replicas while
	// in-flight ones finish).
	Addr string `json:"addr,omitempty"`
}

// Answer is a query result.
type Answer struct {
	// Attrs is the result schema (query variable ids).
	Attrs []int `json:"attrs"`
	// Nonempty is the Boolean answer.
	Nonempty bool `json:"nonempty"`
	// Rows is the result cardinality.
	Rows int `json:"rows"`
	// Tuples is the full result in the executor's row order: a set, with
	// no order promised (a reader that needs one sorts; a relay keeps the
	// order it received). On the wire it travels as the frame's binary
	// tuple block, not as JSON (see the package comment). ReadFrame builds
	// it as row sub-slices of one backing array; AnswerOf leaves it nil at
	// arity ≥ 1. The JSON tag is what json.Marshal of a decoded Response
	// renders outside a frame: request logs, `projpush -connect`.
	Tuples [][]int32 `json:"tuples,omitempty"`
	// rel is AnswerOf's result relation at arity ≥ 1: WriteFrame writes
	// the tuple block from its arena.
	rel *relation.Relation
}

// Verdict is the admission-control assessment of a query, computed from
// schemas alone before any execution.
type Verdict struct {
	// Method is the optimization method the verdict is for.
	Method string `json:"method"`
	// PlanWidth is the predicted maximum intermediate arity of the
	// chosen method's plan — the paper's central cost measure.
	PlanWidth int `json:"plan_width"`
	// ElimWidth is the MCS elimination width of the join graph: an
	// upper bound w on treewidth, so w+1 bounds the arity achievable by
	// the best structural method (Theorems 1–2).
	ElimWidth int `json:"elim_width"`
	// AGMLog2 is the log2 of the AGM output bound (Atserias–Grohe–Marx)
	// under a greedy integral edge cover over the actual relation
	// cardinalities: the full join's output can never exceed 2^AGMLog2
	// rows.
	AGMLog2 float64 `json:"agm_log2"`
	// BagAGMLog2 is the MCS bag bound the size-only rule routed on, by
	// route reason: on no_gain_from_decomposition the widest bag's, which
	// AGMLog2 is within; on free_vars_under_bag that of the first bag's
	// variables outside the head, which is above FreeAGMLog2. Nil on
	// every other route.
	BagAGMLog2 *float64 `json:"bag_agm_log2,omitempty"`
	// FreeAGMLog2 is the bound for the free variables alone, what the
	// multiway join's free prefix enumerates. Set for a cyclic query the
	// decomposition gains on (no_gain did not hold), whether or not a bag
	// beat it.
	FreeAGMLog2 *float64 `json:"free_agm_log2,omitempty"`
	// PlanAGMLog2, on free_vars_under_bag, is the log2 of the sum of every
	// MCS bag's bound: the most a plan over the decomposition builds. The
	// multiway join runs under a budget of 2^PlanAGMLog2 seeks, and past
	// it the cascade's own route answers — unless that route is the
	// multiway join too, which then runs with no budget.
	PlanAGMLog2 *float64 `json:"plan_agm_log2,omitempty"`
	// PredictedPeakBytes is a static upper bound on the streaming
	// engine's peak live bytes: the sum of the referenced base
	// relations' footprints. Every pipeline breaker stores at most the
	// needed columns of one base input (pre-reduced by pushdown), so a
	// run can never hold more than all of them at once. This is the
	// quantity byte-budget admission reasons about — cumulative
	// materialization is unbounded by the inputs, peak residency is not.
	PredictedPeakBytes int64 `json:"predicted_peak_bytes"`
	// MaxWidth, MaxAGMLog2 and MaxPredictedBytes echo the thresholds in
	// force (0 = off).
	MaxWidth          int     `json:"max_width,omitempty"`
	MaxAGMLog2        float64 `json:"max_agm_log2,omitempty"`
	MaxPredictedBytes int64   `json:"max_predicted_bytes,omitempty"`
	// Admitted reports whether the query passed every threshold.
	Admitted bool `json:"admitted"`
	// AdmittedOnAGM reports that the query failed the width threshold
	// but was admitted anyway because its AGM output bound is within
	// 2^24 rows and the worst-case-optimal executor — whose total work
	// is bounded by that output bound, not by the plan width — will run
	// it. Width is the wrong admission quantity for a multiway join;
	// the output bound is the right one.
	AdmittedOnAGM bool `json:"admitted_on_agm,omitempty"`
	// arm is the arm of the size-only rule the query meets (sizeRule):
	// all route reads of the rule.
	arm sizeArm
}

// AttemptInfo is one degradation-ladder rung of an executed request.
type AttemptInfo struct {
	Method string `json:"method"`
	Err    string `json:"err,omitempty"`
}

// RunStats is the executed request's instrumentation, mirroring
// engine.Stats. An admission rejection carries no RunStats at all:
// nothing ran, nothing was materialized.
type RunStats struct {
	MaxRows  int   `json:"max_rows"`
	MaxArity int   `json:"max_arity"`
	Tuples   int64 `json:"tuples"`
	Bytes    int64 `json:"bytes"`
	// PeakBytes is the high-water mark of live relation storage; for
	// the streaming engine Bytes reports the same peak, for the
	// materializing executors Bytes is the cumulative total.
	PeakBytes   int64 `json:"peak_bytes"`
	Joins       int   `json:"joins"`
	Projections int   `json:"projections"`
	// Materialized counts tuples written by joins, projections and bag
	// evaluation; Reduced counts tuples deleted by the Yannakakis
	// semijoin sweeps (zero for plan executors).
	Materialized int64 `json:"materialized,omitempty"`
	Reduced      int64 `json:"reduced,omitempty"`
	// Seeks and Extensions instrument the worst-case-optimal executor's
	// leapfrog intersections (zero for every other route).
	Seeks      int64         `json:"seeks,omitempty"`
	Extensions int64         `json:"extensions,omitempty"`
	ElapsedUS  int64         `json:"elapsed_us"`
	Attempts   []AttemptInfo `json:"attempts,omitempty"`
}

// Health is the health endpoint's payload.
type Health struct {
	// Ready is false while the server drains.
	Ready bool `json:"ready"`
	// InFlight is the number of requests currently executing.
	InFlight int64 `json:"in_flight"`
	// OpenConns is the number of client connections this server or
	// coordinator front holds open, the asking one included: clients keep
	// theirs between requests, and each costs two goroutines while held.
	OpenConns int `json:"open_conns,omitempty"`
	// Served counts successfully answered queries (ok + degraded).
	Served int64 `json:"served"`
	// Degraded counts answers that needed the degradation ladder.
	Degraded int64 `json:"degraded"`
	// Shed, OverWidth and Failed count rejected and failed queries.
	Shed      int64 `json:"shed"`
	OverWidth int64 `json:"over_width"`
	Failed    int64 `json:"failed"`
	// Worker echoes the server's configured worker id (fleet members
	// only; empty on single-process servers).
	Worker string `json:"worker,omitempty"`
	// Workers maps each fleet member's address to its health state
	// ("up", "down", "half-open", "draining") — present only on
	// coordinator health responses.
	Workers map[string]string `json:"workers,omitempty"`
	// Failovers, Hedges, Rescued and Unavailable count coordinator-side
	// events: worker attempts that failed over to the next replica,
	// hedge requests fired against a second replica, requests rescued by
	// the coordinator's local degraded execution after every replica for
	// their shard was down, and requests that found no healthy replica
	// with no local fallback armed.
	Failovers   int64 `json:"failovers,omitempty"`
	Hedges      int64 `json:"hedges,omitempty"`
	Rescued     int64 `json:"rescued,omitempty"`
	Unavailable int64 `json:"unavailable,omitempty"`
	// CompiledHits and CompiledMisses count query and explain requests
	// whose text (with its named method) had and had not been compiled by
	// this server before — its parse, plan, verdict and route — and
	// CompiledEntries is how many compiled texts are held now.
	CompiledHits    int64 `json:"compiled_hits,omitempty"`
	CompiledMisses  int64 `json:"compiled_misses,omitempty"`
	CompiledEntries int   `json:"compiled_entries,omitempty"`
	// ResidentIndexBytes is the bytes of the column and sorted indexes
	// built over the server database's relations: resident state shared
	// by every request, which no request's stats or budget carry.
	ResidentIndexBytes int64 `json:"resident_index_bytes,omitempty"`
}

// Response is one server message.
type Response struct {
	Status  Status    `json:"status"`
	Error   string    `json:"error,omitempty"`
	Answer  *Answer   `json:"answer,omitempty"`
	Verdict *Verdict  `json:"verdict,omitempty"`
	Stats   *RunStats `json:"stats,omitempty"`
	Explain string    `json:"explain,omitempty"`
	Health  *Health   `json:"health,omitempty"`
	Ready   *bool     `json:"ready,omitempty"`
	// Worker identifies the fleet member that produced the response
	// (its Config.WorkerID, or its address when the coordinator filled
	// it in; "local" for a coordinator's local degraded execution).
	// Empty on single-process servers.
	Worker string `json:"worker,omitempty"`
	// Failovers counts the replicas that failed before this answer was
	// produced — each one a worker the coordinator gave up on (dropped
	// connection, timeout, shed, draining, isolated fault) before
	// retrying the next replica on the ring with the remaining deadline.
	Failovers int `json:"failovers,omitempty"`
	// Hedged reports that the answer came from a hedge request: a
	// second replica fired after the coordinator's p95-based delay that
	// beat the still-running first attempt.
	Hedged bool `json:"hedged,omitempty"`
}

// tupleBlock describes the binary block that follows a Response's JSON
// object in its frame. It is carried explicitly rather than inferred:
// a Handler may send tuples without Attrs.
type tupleBlock struct {
	Rows  int `json:"rows"`
	Arity int `json:"arity"`
}

// wireResponse is the JSON object of a Response frame: the Response
// with Answer.Tuples detached, plus the descriptor of the block that
// carries them.
type wireResponse struct {
	*Response
	TupleBlock *tupleBlock `json:"tuple_block,omitempty"`
}

// frameBufs recycles the buffers WriteFrame builds frames in and ReadFrame
// reads them into; nothing decoded aliases one. A buffer over
// maxPooledFrame is dropped, so a frame near MaxFrame pins no memory.
var frameBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

const maxPooledFrame = 1 << 20

func putFrameBuf(p *[]byte, b []byte) {
	if *p = b[:0]; cap(b) <= maxPooledFrame {
		frameBufs.Put(p)
	}
}

// WriteFrame writes v as one frame: the length prefix, v's JSON and,
// for a *Response whose answer has tuples of arity ≥ 1, the tuple block
// in their place. It fails with ErrFrameTooLarge before rendering
// anything when the frame would exceed MaxFrame, and with a plain error
// when the answer's rows differ in length; either way nothing is
// written.
func WriteFrame(w io.Writer, v any) error { return writeFrame(w, v, MaxFrame) }

func writeFrame(w io.Writer, v any, limit int) error {
	resp, _ := v.(*Response)
	var tuples [][]int32 // the block's values in order: a relayed answer's rows, or AnswerOf's arena
	rows, arity := 0, 0
	if resp != nil && resp.Answer != nil {
		tuples, rows = resp.Answer.Tuples, len(resp.Answer.Tuples)
		for i, row := range tuples {
			if i == 0 {
				arity = len(row)
			} else if len(row) != arity {
				return fmt.Errorf("server: ragged answer: row %d has %d values, row 0 has %d", i, len(row), arity)
			}
		}
		if rel := resp.Answer.rel; rel != nil {
			tuples, rows, arity = [][]int32{rel.Arena()}, rel.Len(), rel.Arity()
		}
	}
	blockLen := 4 * rows * arity
	if blockLen > 0 {
		if blockLen > limit {
			return fmt.Errorf("%w: answer of %d rows x %d columns needs %d bytes, MaxFrame is %d",
				ErrFrameTooLarge, rows, arity, blockLen, limit)
		}
		detached, ans := *resp, *resp.Answer
		ans.Tuples = nil
		detached.Answer = &ans
		v = wireResponse{Response: &detached, TupleBlock: &tupleBlock{Rows: rows, Arity: arity}}
	}

	// Header, JSON and block are built in one pooled buffer and written once.
	p := frameBufs.Get().(*[]byte)
	buf := bytes.NewBuffer((*p)[:4])
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return fmt.Errorf("server: marshal frame: %w", err)
	}
	buf.Truncate(buf.Len() - 1) // Encode ends with a newline; the frame does not
	buf.Grow(blockLen)
	frame := appendBlock(buf.Bytes(), tuples) // within the room Grow made
	defer func() { putFrameBuf(p, frame) }()
	if n := len(frame) - 4; n > limit {
		return fmt.Errorf("%w: %d bytes (%d of them tuples), MaxFrame is %d", ErrFrameTooLarge, n, blockLen, limit)
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	_, err := w.Write(frame)
	return err
}

// appendBlock appends the values of tuples in order to frame, as
// little-endian int32: the tuple block, or nothing when the tuples stayed
// in the JSON (arity 0). frame has room for them, so no append grows it.
func appendBlock(frame []byte, tuples [][]int32) []byte {
	for _, row := range tuples {
		for _, x := range row {
			frame = binary.LittleEndian.AppendUint32(frame, uint32(x))
		}
	}
	return frame
}

// ReadFrame reads one frame and unmarshals it into v. When v is a
// *Response and the frame carries a tuple block, the block is checked
// against its descriptor and copied into Answer.Tuples; into any other v
// a frame with a block does not decode.
func ReadFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return fmt.Errorf("%w: length prefix %d", ErrFrameTooLarge, n)
	}
	p := frameBufs.Get().(*[]byte)
	payload := slices.Grow((*p)[:0], int(n))[:n]
	defer putFrameBuf(p, payload)
	if _, err := io.ReadFull(r, payload); err != nil {
		return err
	}
	resp, ok := v.(*Response)
	if !ok {
		return json.Unmarshal(payload, v)
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	obj := wireResponse{Response: resp}
	if err := dec.Decode(&obj); err != nil {
		return err
	}
	block := payload[dec.InputOffset():]
	tb := obj.TupleBlock
	if tb == nil {
		if len(block) != 0 {
			return fmt.Errorf("server: %d bytes after the frame's JSON object and no tuple_block descriptor", len(block))
		}
		return nil
	}
	if resp.Answer == nil {
		return errors.New("server: tuple_block descriptor without an answer")
	}
	// A set over zero attributes has at most one tuple, so an arity-0
	// descriptor cannot claim more rows than the (empty) block can bound.
	words := len(block) / 4
	if tb.Rows < 0 || tb.Arity < 0 || tb.Rows > max(words, 1) || tb.Arity > words ||
		int64(4)*int64(tb.Rows)*int64(tb.Arity) != int64(len(block)) {
		return fmt.Errorf("server: tuple block of %d bytes does not hold %d rows x %d columns", len(block), tb.Rows, tb.Arity)
	}
	flat := make([]int32, words)
	for i := range flat {
		flat[i] = int32(binary.LittleEndian.Uint32(block[4*i:]))
	}
	// Rows are capped so that appending to one cannot overwrite the next.
	resp.Answer.Tuples = make([][]int32, tb.Rows)
	for i := range resp.Answer.Tuples {
		resp.Answer.Tuples[i] = flat[i*tb.Arity : (i+1)*tb.Arity : (i+1)*tb.Arity]
	}
	return nil
}
