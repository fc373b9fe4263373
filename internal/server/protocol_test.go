package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/relation"
)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// randomResult builds a result relation of the given arity with n random
// rows drawn from [lo, hi] (duplicates collapse, so it may hold fewer).
func randomResult(rng *rand.Rand, arity, n int, lo, hi int64) *engine.Result {
	attrs := make([]relation.Attr, arity)
	for j := range attrs {
		attrs[j] = 10 + j
	}
	rel := relation.New(attrs)
	row := make(relation.Tuple, arity)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = relation.Value(lo + rng.Int63n(hi-lo+1))
		}
		rel.Add(row)
	}
	return &engine.Result{Rel: rel}
}

func sameRows(a, b [][]int32) bool {
	return slices.EqualFunc(a, b, func(x, y []int32) bool { return slices.Equal(x, y) })
}

// decoded returns resp as a client reads it: the frame WriteFrame writes
// for it, decoded by ReadFrame. An answer from AnswerOf holds its tuples
// only in the result relation until it is written, so tests read answers
// through here. It reports with t.Errorf, so goroutines may call it.
func decoded(t testing.TB, resp *Response) *Response {
	t.Helper()
	var frame bytes.Buffer
	if err := WriteFrame(&frame, resp); err != nil {
		t.Errorf("WriteFrame: %v", err)
		return nil
	}
	var got Response
	if err := ReadFrame(&frame, &got); err != nil || frame.Len() != 0 {
		t.Errorf("ReadFrame: %v, %d bytes left unread", err, frame.Len())
		return nil
	}
	return &got
}

// TestFrameRoundTripRandomRelations is the codec's property test and the
// wire's order contract: the frame of AnswerOf's answer carries exactly
// the relation's rows in arena order, and ReadFrame keeps that order row
// for row (the coordinator relays worker frames, so the codec must not
// reorder), for every arity and value range the block distinguishes. Each
// arity also sends rows added in descending order, an arena that is not
// sorted.
func TestFrameRoundTripRandomRelations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	full := [2]int64{math.MinInt32, math.MaxInt32}
	ranges := [][2]int64{{0, 2}, {-40, 40}, {0, 4095}, full}
	for arity := 0; arity <= 9; arity++ {
		for _, rg := range ranges {
			for _, n := range []int{0, 1, 300} {
				res := randomResult(rng, arity, n, rg[0], rg[1])
				if arity > 0 && n > 1 && rg == full {
					for _, extreme := range []relation.Value{math.MinInt32, math.MaxInt32} {
						row := make(relation.Tuple, arity)
						for j := range row {
							row[j] = extreme
						}
						res.Rel.Add(row)
					}
				}
				checkFrameRoundTrip(t, fmt.Sprintf("arity %d range %v n %d", arity, rg, n), res)
			}
		}
		res := randomResult(rng, arity, 0, 0, 0)
		row := make(relation.Tuple, arity)
		for v := relation.Value(299); v >= 0; v-- {
			for j := range row {
				row[j] = v
			}
			res.Rel.Add(row)
		}
		checkFrameRoundTrip(t, fmt.Sprintf("arity %d descending", arity), res)
	}
}

// checkFrameRoundTrip sends res through AnswerOf, WriteFrame and
// ReadFrame and checks that the rows keep the relation's arena order.
func checkFrameRoundTrip(t *testing.T, name string, res *engine.Result) {
	t.Helper()
	arity, rows := res.Rel.Arity(), res.Rel.Len()
	want := make([][]int32, rows)
	for i, tup := range res.Rel.Tuples() {
		want[i] = slices.Clone(tup)
	}
	sent := &Response{Status: StatusOK, Answer: AnswerOf(res), Stats: StatsOf(&res.Stats)}
	var frame bytes.Buffer
	if err := WriteFrame(&frame, sent); err != nil {
		t.Fatalf("%s: WriteFrame: %v", name, err)
	}
	hasBlock := bytes.Contains(frame.Bytes(), []byte(`"tuple_block"`))
	if hasBlock != (arity > 0 && rows > 0) {
		t.Fatalf("%s: tuple block present = %v", name, hasBlock)
	}
	if bytes.Contains(frame.Bytes(), []byte(`"tuples":[`)) != (arity == 0 && rows > 0) {
		t.Fatalf("%s: JSON tuples on the wire: %q", name, frame.Bytes()[4:])
	}
	got := decoded(t, sent)
	if got == nil {
		t.FailNow()
	}
	if len(got.Answer.Tuples) != rows || !sameRows(got.Answer.Tuples, want) {
		t.Fatalf("%s: decoded %d rows differ from the %d sent, in order", name, len(got.Answer.Tuples), rows)
	}
	// Everything but the tuples travels as before.
	sent.Answer.Tuples, got.Answer.Tuples = nil, nil
	a, _ := json.Marshal(sent)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatalf("%s: response changed in transit:\n sent %s\n got  %s", name, a, b)
	}
}

// TestBooleanTrueAnswerRoundTrips pins the arity-0 cases by name: the
// empty relation, and the one empty tuple that is the Boolean "true".
func TestBooleanTrueAnswerRoundTrips(t *testing.T) {
	truth := relation.New(nil)
	truth.Add(relation.Tuple{})
	for _, tc := range []struct {
		rel  *relation.Relation
		rows int
	}{{relation.New(nil), 0}, {truth, 1}} {
		got := decoded(t, &Response{Status: StatusOK, Answer: AnswerOf(&engine.Result{Rel: tc.rel})})
		if got == nil {
			t.FailNow()
		}
		if got.Answer.Rows != tc.rows || got.Answer.Nonempty != (tc.rows > 0) || len(got.Answer.Tuples) != tc.rows {
			t.Fatalf("rows %d: decoded %+v", tc.rows, got.Answer)
		}
		if tc.rows == 1 && (got.Answer.Tuples[0] == nil || len(got.Answer.Tuples[0]) != 0) {
			t.Fatalf("true answer decoded to %#v, want one empty tuple", got.Answer.Tuples)
		}
	}
	// A peer that describes the true answer as a 1x0 block is read the same way.
	var got Response
	if err := ReadFrame(rawFrame(`{"status":"ok","answer":{"attrs":[],"nonempty":true,"rows":1},"tuple_block":{"rows":1,"arity":0}}`, nil), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Answer.Tuples) != 1 || len(got.Answer.Tuples[0]) != 0 {
		t.Fatalf("1x0 block decoded to %#v, want one empty tuple", got.Answer.Tuples)
	}
}

// TestTupleLessFramesUnchanged: a frame without a tuple block is the
// length prefix and json.Marshal's bytes, as before the block existed.
func TestTupleLessFramesUnchanged(t *testing.T) {
	ready := true
	for _, v := range []any{
		&Request{Op: "query", Query: "query q(x) :- edge(x,y).", Method: "wcoj", Timeout: "2s"},
		&Response{Status: StatusOK, Ready: &ready},
		&Response{Status: StatusOK, Health: &Health{Ready: true, OpenConns: 2, Served: 3, Workers: map[string]string{"127.0.0.1:7434": "up"}}},
		&Response{Status: StatusOK, Explain: "join <x&y>", Verdict: &Verdict{Method: "stream", Admitted: true}},
		&Response{Status: StatusOverWidth, Error: "plan width 9 > 3", Verdict: &Verdict{PlanWidth: 9}},
		&Response{Status: StatusOK, Answer: &Answer{Attrs: []int{}, Nonempty: true, Rows: 1, Tuples: [][]int32{{}}}, Stats: &RunStats{Joins: 2}},
		&Response{Status: StatusOK, Answer: &Answer{Attrs: []int{4, 5}, Rows: 0, Tuples: [][]int32{}}},
	} {
		payload, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var frame bytes.Buffer
		if err := WriteFrame(&frame, v); err != nil {
			t.Fatal(err)
		}
		want := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
		if want = append(want, payload...); !bytes.Equal(frame.Bytes(), want) {
			t.Errorf("frame of %s changed:\n got  %q\n want %q", payload, frame.Bytes(), want)
		}
	}
}

// TestMarshalOutsideFrameKeepsTuples: json.Marshal of a decoded Response
// still renders the tuples as JSON (request logs, projpush -connect).
func TestMarshalOutsideFrameKeepsTuples(t *testing.T) {
	var frame bytes.Buffer
	sent := &Response{Status: StatusOK, Answer: &Answer{Attrs: []int{1, 2}, Nonempty: true, Rows: 2, Tuples: [][]int32{{1, -2}, {3, 4}}}}
	if err := WriteFrame(&frame, sent); err != nil {
		t.Fatal(err)
	}
	var got Response
	if err := ReadFrame(&frame, &got); err != nil {
		t.Fatal(err)
	}
	out, _ := json.Marshal(&got)
	if want := `{"status":"ok","answer":{"attrs":[1,2],"nonempty":true,"rows":2,"tuples":[[1,-2],[3,4]]}}`; string(out) != want {
		t.Fatalf("json.Marshal(decoded) = %s, want %s", out, want)
	}
}

// TestWriteFrameRaggedAnswer: rows of different lengths are an error and
// write nothing, whichever row is the odd one.
func TestWriteFrameRaggedAnswer(t *testing.T) {
	for _, tuples := range [][][]int32{
		{{1, 2}, {3}},
		{{1, 2}, {3, 4}, {5, 6, 7}},
		{{}, {1}},
		{{1}, {}},
	} {
		var frame bytes.Buffer
		err := WriteFrame(&frame, &Response{Status: StatusOK, Answer: &Answer{Rows: len(tuples), Tuples: tuples}})
		if err == nil || !strings.Contains(err.Error(), "ragged") || errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("tuples %v: err = %v, want a ragged-answer error", tuples, err)
		}
		if frame.Len() != 0 {
			t.Errorf("tuples %v: %d bytes written before the error", tuples, frame.Len())
		}
	}
}

// TestWriteFrameTooLarge: the cap is checked from rows x arity, the
// error is the typed sentinel, and nothing is written.
func TestWriteFrameTooLarge(t *testing.T) {
	res := randomResult(rand.New(rand.NewSource(3)), 3, 400, 0, 1000)
	var frame bytes.Buffer
	err := writeFrame(&frame, &Response{Status: StatusOK, Answer: AnswerOf(res)}, 1024)
	if !errors.Is(err, ErrFrameTooLarge) || frame.Len() != 0 {
		t.Fatalf("err = %v with %d bytes written, want ErrFrameTooLarge and none", err, frame.Len())
	}
	for _, part := range []string{"rows", "3 columns", "1024"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q does not mention %q", err, part)
		}
	}
	// JSON alone over the cap (a long error text) is refused the same way.
	err = writeFrame(&frame, &Response{Status: StatusError, Error: strings.Repeat("x", 2000)}, 1024)
	if !errors.Is(err, ErrFrameTooLarge) || frame.Len() != 0 {
		t.Fatalf("err = %v with %d bytes written, want ErrFrameTooLarge and none", err, frame.Len())
	}
	var hdr bytes.Buffer
	hdr.Write(binary.BigEndian.AppendUint32(nil, MaxFrame+1))
	if err := ReadFrame(&hdr, &Response{}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ReadFrame of an oversized prefix: %v, want ErrFrameTooLarge", err)
	}
}

// rawFrame builds a frame by hand: prefix, the given JSON, the given block.
func rawFrame(jsonObj string, block []byte) *bytes.Buffer {
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(jsonObj)+len(block)))
	buf = append(buf, jsonObj...)
	return bytes.NewBuffer(append(buf, block...))
}

// TestReadFrameRejectsInconsistentBlock: every disagreement between the
// descriptor and the bytes present is an error before any tuple is built.
func TestReadFrameRejectsInconsistentBlock(t *testing.T) {
	const ans = `{"status":"ok","answer":{"attrs":[1,2],"nonempty":true,"rows":2}`
	block := make([]byte, 16)
	for name, frame := range map[string]*bytes.Buffer{
		"block without descriptor": rawFrame(ans+`}`, block),
		"short block":              rawFrame(ans+`,"tuple_block":{"rows":2,"arity":2}}`, block[:12]),
		"long block":               rawFrame(ans+`,"tuple_block":{"rows":1,"arity":2}}`, block),
		"unaligned block":          rawFrame(ans+`,"tuple_block":{"rows":2,"arity":2}}`, append(block, 0)),
		"descriptor without block": rawFrame(ans+`,"tuple_block":{"rows":2,"arity":2}}`, nil),
		"negative rows":            rawFrame(ans+`,"tuple_block":{"rows":-2,"arity":-2}}`, block),
		"overflowing product":      rawFrame(ans+`,"tuple_block":{"rows":4611686018427387905,"arity":4}}`, block),
		"rows over MaxFrame":       rawFrame(ans+`,"tuple_block":{"rows":16777217,"arity":1}}`, block),
		"arity 0, many rows":       rawFrame(ans+`,"tuple_block":{"rows":1000000000,"arity":0}}`, nil),
		"arity 0 with a block":     rawFrame(ans+`,"tuple_block":{"rows":1,"arity":0}}`, block),
		"descriptor, no answer":    rawFrame(`{"status":"ok","tuple_block":{"rows":2,"arity":2}}`, block),
	} {
		var resp Response
		if err := ReadFrame(frame, &resp); err == nil {
			t.Errorf("%s: decoded without error to %+v", name, resp.Answer)
		}
	}
	// Only a *Response can receive a block.
	var m map[string]any
	if err := ReadFrame(rawFrame(ans+`,"tuple_block":{"rows":2,"arity":2}}`, block), &m); err == nil {
		t.Error("a frame with a tuple block decoded into a map")
	}
}

// wideAnswer is the benchmark's wide-answer shape: 13k rows of three
// 12-bit columns.
func wideAnswer() *engine.Result {
	return randomResult(rand.New(rand.NewSource(13)), 3, 13_400, 0, 3999)
}

// bytesPerRun is testing.AllocsPerRun in bytes: the mean heap bytes one
// call of f allocates, after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestFrameAllocations guards what the block and the frame pool bought:
// a 13k x 3 answer encodes and decodes in a number of allocations that
// does not depend on its row count. Once warm, encoding copies no answer
// and allocates no frame, and decoding allocates the answer's values and
// row headers and little else: no payload buffer. The race detector's
// sync.Pool drops a share of what is put back, so it checks counts only.
func TestFrameAllocations(t *testing.T) {
	res := wideAnswer()
	encode := func(w *bytes.Buffer) {
		w.Reset()
		resp := &Response{Status: StatusOK, Answer: AnswerOf(res), Stats: StatsOf(&res.Stats), Verdict: &Verdict{Method: "yannakakis", Admitted: true}}
		if err := WriteFrame(w, resp); err != nil {
			t.Fatal(err)
		}
	}
	var frame bytes.Buffer
	encode(&frame)
	encoded := frame.Bytes()
	var sink bytes.Buffer
	sink.Grow(len(encoded))
	decode := func() {
		var got Response
		if err := ReadFrame(bytes.NewReader(encoded), &got); err != nil || len(got.Answer.Tuples) != res.Rel.Len() {
			t.Fatalf("decode: %v", err)
		}
	}

	if n := testing.AllocsPerRun(10, func() { encode(&sink) }); n >= 100 {
		t.Errorf("encode: %v allocations, want < 100", n)
	}
	if n := testing.AllocsPerRun(10, decode); n >= 200 {
		t.Errorf("decode: %v allocations, want < 200", n)
	}
	if raceEnabled {
		return
	}
	if n := bytesPerRun(20, func() { encode(&sink) }); n >= 4<<10 {
		t.Errorf("encode: %d bytes allocated per frame, want < 4 KiB", n)
	}
	// The values and the row headers are each one allocation over 32 KiB,
	// which the allocator rounds up to whole 8 KiB pages.
	pages := func(n int) uint64 { return uint64((n + 8<<10 - 1) &^ (8<<10 - 1)) }
	rows, arity := res.Rel.Len(), res.Rel.Arity()
	answer := pages(4*rows*arity) + pages(rows*int(unsafe.Sizeof([]int32(nil))))
	if n := bytesPerRun(50, decode); n > answer+8<<10 {
		t.Errorf("decode: %d bytes allocated per frame, want at most the answer's %d + 8 KiB", n, answer)
	}
}

// TestSingleAtomAnswerLeavesTheStoredArena: a one-atom query's result is a
// zero-copy view of a stored relation, and its answer is written from that
// arena. It must reach the client equal to the stored relation, and
// neither writing it nor the client's copy may touch the stored arena.
func TestSingleAtomAnswerLeavesTheStoredArena(t *testing.T) {
	e := relation.New([]relation.Attr{0, 1})
	for i := 0; i < 500; i++ {
		e.Add(relation.Tuple{relation.Value(i % 37), relation.Value(-i)})
	}
	before := slices.Clone(e.Arena())
	s := New(Config{DB: cq.Database{"e": e}})
	resp := s.handleRequest(context.Background(), &Request{Op: "query", Query: "query ans(x, y) :- e(x, y).\n"}, "test")
	if resp.Status != StatusOK || resp.Answer == nil || resp.Answer.rel == nil {
		t.Fatalf("status %s (%s), answer %+v", resp.Status, resp.Error, resp.Answer)
	}
	if view := resp.Answer.rel.Arena(); len(view) == 0 || &view[0] != &e.Arena()[0] {
		t.Fatal("the single-atom result is not a view of the stored arena: the test no longer covers the aliasing path")
	}
	got := decoded(t, resp)
	if got == nil {
		t.FailNow()
	}
	if len(got.Answer.Tuples) != e.Len() || !slices.Equal(slices.Concat(got.Answer.Tuples...), before) {
		t.Fatalf("decoded %d rows, want the stored relation's %d in its order", len(got.Answer.Tuples), e.Len())
	}
	for _, row := range got.Answer.Tuples {
		row[0], row[1] = -1, -1
	}
	if again := decoded(t, resp); again == nil || !slices.Equal(e.Arena(), before) ||
		!slices.Equal(slices.Concat(again.Answer.Tuples...), before) {
		t.Fatal("the stored relation, or a second frame of its answer, changed with the client's copy")
	}
}

// TestConsecutiveDecodesAreIndependent: decodes share pooled payload
// buffers, never the answers built from them.
func TestConsecutiveDecodesAreIndependent(t *testing.T) {
	first := decoded(t, &Response{Status: StatusOK, Answer: AnswerOf(wideAnswer())})
	want := slices.Concat(first.Answer.Tuples...)
	second := decoded(t, &Response{Status: StatusOK, Answer: AnswerOf(randomResult(rand.New(rand.NewSource(5)), 3, 9000, -100, 100))})
	second.Answer.Tuples[0][0]++
	if !slices.Equal(slices.Concat(first.Answer.Tuples...), want) {
		t.Fatal("decoding, or writing to, a second answer changed the first")
	}
}

// TestConcurrentEncodesMatchSerial: 8 goroutines encoding different
// answers through the shared frame pool write the bytes a serial encode
// writes. Under -race it is the proof that no two frames share a buffer.
func TestConcurrentEncodesMatchSerial(t *testing.T) {
	const goroutines = 8
	frames := make([][]byte, goroutines)
	resps := make([]*Response, goroutines)
	for g := range resps {
		res := randomResult(rand.New(rand.NewSource(int64(g))), 1+g%4, 2000+500*g, -1000, 1000)
		resps[g] = &Response{Status: StatusOK, Answer: AnswerOf(res), Stats: StatsOf(&res.Stats)}
		var frame bytes.Buffer
		if err := WriteFrame(&frame, resps[g]); err != nil {
			t.Fatal(err)
		}
		frames[g] = frame.Bytes()
	}
	var wg sync.WaitGroup
	for g := range resps {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				var frame bytes.Buffer
				if err := WriteFrame(&frame, resps[g]); err != nil || !bytes.Equal(frame.Bytes(), frames[g]) {
					t.Errorf("goroutine %d round %d: %v, or %d bytes differ from the serial encode's %d", g, round, err, frame.Len(), len(frames[g]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzReadFrame: whatever the bytes, ReadFrame returns a value or a
// clean error — it never panics, and never builds more tuple data than
// the frame it was given holds. The malformed seeds (descriptor against
// block, overflow, prefixes over MaxFrame or the stream) are the corpus
// in testdata/fuzz/FuzzReadFrame. Each input is decoded right after a
// wide frame, whose answer must not change: no answer aliases the pooled
// buffer the next frame is read into.
func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	WriteFrame(&good, &Response{Status: StatusOK, Answer: &Answer{Attrs: []int{1, 2}, Nonempty: true, Rows: 2, Tuples: [][]int32{{1, -2}, {3, math.MaxInt32}}}})
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()-3])                    // truncated block
	f.Add(append(slices.Clone(good.Bytes()), 1, 2, 3, 4)) // bytes after the frame
	var wide bytes.Buffer
	WriteFrame(&wide, &Response{Status: StatusOK, Answer: AnswerOf(randomResult(rand.New(rand.NewSource(7)), 3, 2000, -50, 50))})
	f.Fuzz(func(t *testing.T, data []byte) {
		// A wide frame first: the input is read into the buffer it used.
		var first Response
		if err := ReadFrame(bytes.NewReader(wide.Bytes()), &first); err != nil {
			t.Fatal(err)
		}
		want := slices.Concat(first.Answer.Tuples...)
		var resp Response
		err := ReadFrame(bytes.NewReader(data), &resp)
		if !slices.Equal(slices.Concat(first.Answer.Tuples...), want) {
			t.Fatal("decoding the input changed the answer decoded before it")
		}
		if err != nil || resp.Answer == nil {
			return
		}
		values := 0
		for _, row := range resp.Answer.Tuples {
			values += len(row)
		}
		// A value costs four bytes in a block and at least two as JSON;
		// a row at least one value or, empty, three bytes of JSON.
		if 2*values > len(data) || len(resp.Answer.Tuples) > len(data) {
			t.Fatalf("%d rows, %d values decoded from a %d-byte frame", len(resp.Answer.Tuples), values, len(data))
		}
	})
}

// BenchmarkServerAnswerFrame measures the answer's last hop in process:
// encode is AnswerOf + StatsOf + WriteFrame (the benchmark's
// server.encode_us), decode is ReadFrame (client.decode_us).
func BenchmarkServerAnswerFrame(b *testing.B) {
	truth := relation.New(nil)
	truth.Add(relation.Tuple{})
	shapes := []struct {
		name string
		res  *engine.Result
	}{{"wide13kx3", wideAnswer()}, {"boolean", &engine.Result{Rel: truth}}}
	for _, sh := range shapes {
		encode := func(w *bytes.Buffer) {
			err := WriteFrame(w, &Response{Status: StatusOK, Verdict: &Verdict{Method: "yannakakis", Admitted: true},
				Stats: StatsOf(&sh.res.Stats), Answer: AnswerOf(sh.res)})
			if err != nil {
				b.Fatal(err)
			}
		}
		var frame bytes.Buffer
		encode(&frame)
		encoded := frame.Bytes()
		b.Run("encode/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			var w bytes.Buffer
			for i := 0; i < b.N; i++ {
				w.Reset()
				encode(&w)
			}
			b.ReportMetric(float64(len(encoded)), "frame-bytes")
		})
		b.Run("decode/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var resp Response
				if err := ReadFrame(bytes.NewReader(encoded), &resp); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(encoded)), "frame-bytes")
		})
	}
}
