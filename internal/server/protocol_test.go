package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"projpush/internal/engine"
	"projpush/internal/relation"
)

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

// TestFrameRoundTripRandomRelations is the codec's property test and the
// wire's order contract: AnswerOf returns exactly the relation's rows in
// arena order, and WriteFrame → ReadFrame keeps that order row for row
// (the coordinator relays worker frames, so the codec must not reorder),
// for every arity and value range the block distinguishes. Each arity
// also sends rows added in descending order, an arena that is not sorted.
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
	if !sameRows(sent.Answer.Tuples, want) {
		t.Fatalf("%s: AnswerOf rows differ from the arena's, in order", name)
	}
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
	var got Response
	if err := ReadFrame(&frame, &got); err != nil {
		t.Fatalf("%s: ReadFrame: %v", name, err)
	}
	if frame.Len() != 0 {
		t.Fatalf("%s: %d bytes left unread", name, frame.Len())
	}
	if len(got.Answer.Tuples) != rows || !sameRows(got.Answer.Tuples, want) {
		t.Fatalf("%s: decoded %d rows differ from the %d sent, in order", name, len(got.Answer.Tuples), rows)
	}
	// Everything but the tuples travels as before.
	sent.Answer.Tuples, got.Answer.Tuples = nil, nil
	a, _ := json.Marshal(sent)
	b, _ := json.Marshal(&got)
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
		var frame bytes.Buffer
		if err := WriteFrame(&frame, &Response{Status: StatusOK, Answer: AnswerOf(&engine.Result{Rel: tc.rel})}); err != nil {
			t.Fatal(err)
		}
		var got Response
		if err := ReadFrame(&frame, &got); err != nil {
			t.Fatal(err)
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

// TestFrameAllocations guards what the block bought: a 13k x 3 answer
// decodes and encodes in a number of allocations that does not depend
// on its row count.
func TestFrameAllocations(t *testing.T) {
	res := wideAnswer()
	resp := &Response{Status: StatusOK, Answer: AnswerOf(res), Stats: StatsOf(&res.Stats), Verdict: &Verdict{Method: "yannakakis", Admitted: true}}
	var frame bytes.Buffer
	if err := WriteFrame(&frame, resp); err != nil {
		t.Fatal(err)
	}
	encoded := frame.Bytes()
	var sink bytes.Buffer
	sink.Grow(len(encoded))

	if n := testing.AllocsPerRun(10, func() { AnswerOf(res) }); n >= 100 {
		t.Errorf("AnswerOf: %v allocations, want < 100", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		sink.Reset()
		if err := WriteFrame(&sink, resp); err != nil {
			t.Fatal(err)
		}
	}); n >= 100 {
		t.Errorf("encode: %v allocations, want < 100", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		var got Response
		if err := ReadFrame(bytes.NewReader(encoded), &got); err != nil || len(got.Answer.Tuples) != res.Rel.Len() {
			t.Fatalf("decode: %v", err)
		}
	}); n >= 200 {
		t.Errorf("decode: %v allocations, want < 200", n)
	}
}

// FuzzReadFrame: whatever the bytes, ReadFrame returns a value or a
// clean error — it never panics, and never builds more tuple data than
// the frame it was given holds. The malformed seeds (descriptor against
// block, overflow, prefixes over MaxFrame or the stream) are the corpus
// in testdata/fuzz/FuzzReadFrame.
func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	WriteFrame(&good, &Response{Status: StatusOK, Answer: &Answer{Attrs: []int{1, 2}, Nonempty: true, Rows: 2, Tuples: [][]int32{{1, -2}, {3, math.MaxInt32}}}})
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()-3])                    // truncated block
	f.Add(append(slices.Clone(good.Bytes()), 1, 2, 3, 4)) // bytes after the frame
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp Response
		if err := ReadFrame(bytes.NewReader(data), &resp); err != nil || resp.Answer == nil {
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
