package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"projpush/internal/core"
	"projpush/internal/instance"
	"projpush/internal/memo"
)

// compileCase is one request of the compile tests: a text, the method it
// names, and the route_reason its log line must carry.
type compileCase struct {
	name, text, method, reason string
}

// compileCases is one request per way through compile: a methodless query
// per routing tier, and a small query naming each method.
func compileCases(t testing.TB) ([]compileCase, Config) {
	t.Helper()
	pool, db := routePool(t)
	texts := map[string]string{}
	for _, c := range pool {
		texts[c.name] = textOf(t, c.q)
	}
	cases := []compileCase{
		{"narrow", texts["augpath-5"], "", "narrow"},
		{"default", texts["augcircladder-5/20%"], "", "default"},
		{"agm", texts["random-16-d3/8"], "", "agm"},
		{"no_gain", texts["triangle"], "", "no_gain_from_decomposition"},
		{"free_vars", texts["augcircladder-5"], "", "free_vars_under_bag"},
		{"default/wide", texts["random-18-d2/4"], "", "default"},
	}
	for _, list := range [][]core.Method{core.Methods, core.Strategies} {
		for _, m := range list {
			cases = append(cases, compileCase{"named/" + string(m), texts["augpath-5"], string(m), "named"})
		}
	}
	return cases, Config{DB: db, MaxConcurrent: 8}
}

// timeless is the response as a client decodes it, stripped of what
// differs between two runs of one request: the clocks.
func timeless(t testing.TB, r *Response) *Response {
	c := decoded(t, r)
	if c != nil && c.Stats != nil {
		c.Stats.ElapsedUS = 0
	}
	return c
}

// logLines decodes a request log.
func logLines(t testing.TB, log *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		out = append(out, entry)
	}
	return out
}

// TestCompiledHitEqualsMiss: whatever a request's first, compiling arrival
// answered, its second arrival — a lookup — answers too: the same answer,
// verdict, status, explain text and every run count, and a log line that
// differs only in saying so. Every route, every named method, query and
// explain, and an over-width rejection.
func TestCompiledHitEqualsMiss(t *testing.T) {
	cases, cfg := compileCases(t)
	// augcircladder-5/20%'s plan width is over 3 and its AGM bound 2^25.85,
	// over the override's 2^24: a width cap of 3 rejects it.
	narrow := cfg
	narrow.MaxWidth = 3
	for _, op := range []string{"query", "explain"} {
		for _, c := range append(cases, compileCase{name: "over_width", text: cases[1].text}) {
			var log bytes.Buffer
			scfg := cfg
			if c.name == "over_width" {
				scfg = narrow
			}
			scfg.Log = &log
			s := New(scfg)
			req := &Request{Op: op, Query: c.text, Method: c.method}
			first := s.handleRequest(context.Background(), req, "test")
			second := s.handleRequest(context.Background(), req, "test")
			name := op + "/" + c.name
			want := StatusOK
			if c.name == "over_width" {
				want = StatusOverWidth
			}
			if first.Status != want {
				t.Fatalf("%s: status %s (%s), want %s", name, first.Status, first.Error, want)
			}
			if a, b := timeless(t, first), timeless(t, second); !reflect.DeepEqual(a, b) {
				t.Errorf("%s: the hit answered\n%+v\nthe miss\n%+v", name, b, a)
			}
			if op == "query" && want == StatusOK && (first.Answer == nil || first.Stats == nil) {
				t.Errorf("%s: answer %v stats %v", name, first.Answer, first.Stats)
			}
			lines := logLines(t, &log)
			if len(lines) != 2 || lines[0]["compiled"] != "miss" || lines[1]["compiled"] != "hit" {
				t.Fatalf("%s: log %v, want a miss then a hit", name, lines)
			}
			if want == StatusOK && lines[0]["route_reason"] != c.reason {
				t.Errorf("%s: route_reason %v, want %s", name, lines[0]["route_reason"], c.reason)
			}
			if fp, _ := lines[0]["fp"].(string); len(fp) != 16 {
				t.Errorf("%s: fp %v", name, lines[0]["fp"])
			}
			for _, own := range []string{"compiled", "ts", "elapsed_us"} { // the request's own moment
				delete(lines[0], own)
				delete(lines[1], own)
			}
			if !reflect.DeepEqual(lines[0], lines[1]) {
				t.Errorf("%s: the hit logged %v, the miss %v", name, lines[1], lines[0])
			}
		}
	}
}

// TestCompiledSharedAcrossGoroutines fires every case from 8 goroutines at
// once at a fresh server — first arrivals race to compile, the rest share
// what was published — and holds each response to a sequential server's.
// Run under -race, it is the proof that a compiled value is read-only.
func TestCompiledSharedAcrossGoroutines(t *testing.T) {
	cases, cfg := compileCases(t)
	ref := New(cfg)
	want := map[string]*Response{}
	for _, op := range []string{"query", "explain"} {
		for _, c := range cases {
			want[op+"/"+c.name] = timeless(t, ref.handleRequest(context.Background(), &Request{Op: op, Query: c.text, Method: c.method}, "ref"))
		}
	}
	s := New(cfg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range cases {
					c := cases[(i+g)%len(cases)]
					for _, op := range []string{"query", "explain"} {
						got := s.handleRequest(context.Background(), &Request{Op: op, Query: c.text, Method: c.method}, "test")
						if got := timeless(t, got); !reflect.DeepEqual(got, want[op+"/"+c.name]) {
							t.Errorf("goroutine %d %s/%s: got %+v, want %+v", g, op, c.name, got, want[op+"/"+c.name])
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.compiled.Stats(); st.Entries != len(cases) || st.Hits == 0 {
		t.Errorf("memo after the run: %+v, want %d entries and hits", st, len(cases))
	}
}

// TestCompiledKey pins what is and is not in the key: op, timeout and
// affinity are not, the named method is; a text that does not parse is not
// kept, and neither is a text with a rel block — a later request shadowing
// the same relation with other tuples gets its own answer.
func TestCompiledKey(t *testing.T) {
	s := New(Config{DB: instance.ColorDatabase(3)})
	do := func(req *Request) *Response { return s.handleRequest(context.Background(), req, "test") }
	stats := func() memo.Stats { return s.compiled.Stats() }
	text := "query ans(x) :- edge(x, y), edge(y, z).\n"

	do(&Request{Op: "query", Query: text})
	do(&Request{Op: "query", Query: text, Timeout: "3s"})
	do(&Request{Op: "query", Query: text, Timeout: "41ms", Affinity: "0123456789abcdef"})
	do(&Request{Op: "explain", Query: text})
	if st := stats(); st.Misses != 1 || st.Hits != 3 || st.Entries != 1 {
		t.Fatalf("one text under four ops, timeouts and affinities: %+v, want 1 miss, 3 hits, 1 entry", st)
	}
	do(&Request{Op: "query", Query: text, Method: "wcoj"})
	do(&Request{Op: "query", Query: text, Method: "stream"})
	if st := stats(); st.Misses != 3 || st.Entries != 3 {
		t.Fatalf("the same text naming two methods: %+v, want 3 misses, 3 entries", st)
	}
	for i := 0; i < 2; i++ {
		if resp := do(&Request{Op: "query", Query: "query ans(x) :- nosuch(x)."}); resp.Status != StatusParseError {
			t.Fatalf("status %s, want parse_error", resp.Status)
		}
	}
	if st := stats(); st.Misses != 5 || st.Entries != 3 {
		t.Fatalf("a text that does not parse, twice: %+v, want 5 misses, 3 entries", st)
	}

	// edge, shadowed: first a relation with a path of length two, then one
	// without. Were the first compile kept, the second would answer from
	// the first's database.
	withPath := "rel edge {\n 1 2\n 2 3\n}\n" + text
	without := "rel edge {\n 1 2\n 3 4\n}\n" + text
	for round := 0; round < 2; round++ {
		if resp := do(&Request{Op: "query", Query: withPath}); resp.Status != StatusOK || resp.Answer.Rows != 1 {
			t.Fatalf("edge shadowed by a path: %s, answer %+v", resp.Status, resp.Answer)
		}
		if resp := do(&Request{Op: "query", Query: without}); resp.Status != StatusOK || resp.Answer.Rows != 0 {
			t.Fatalf("edge shadowed by two disjoint edges: %s, answer %+v", resp.Status, resp.Answer)
		}
	}
	if st := stats(); st.Misses != 9 || st.Hits != 3 || st.Entries != 3 {
		t.Fatalf("texts with rel blocks: %+v, want all 4 to miss and none kept", st)
	}
	// The resident relation is still the one the plain text sees.
	if resp := do(&Request{Op: "query", Query: text}); resp.Answer.Rows != 3 {
		t.Fatalf("the plain text after the shadowing ones: %+v", resp.Answer)
	}
}

// TestCompiledBound sends distinct texts until they have passed the memo's
// budget twice over: the accounted bytes never exceed it, the memo keeps
// turning over, and the server keeps answering — the first text included,
// long evicted by then.
func TestCompiledBound(t *testing.T) {
	s := New(Config{DB: instance.ColorDatabase(3)})
	pad := strings.Repeat("x", 128<<10)
	text := func(i int) string {
		return fmt.Sprintf("# %d %s\nquery ans(x) :- edge(x, y), edge(y, z).\n", i, pad)
	}
	n := 2*compiledBudget/len(text(0)) + 1
	for i := 0; i <= n; i++ {
		req := &Request{Op: "query", Query: text(i % n)} // the last is the first again
		if resp := s.handleRequest(context.Background(), req, "test"); resp.Status != StatusOK || resp.Answer.Rows != 3 {
			t.Fatalf("text %d: %s (%s), answer %+v", i, resp.Status, resp.Error, resp.Answer)
		}
		if st := s.compiled.Stats(); st.Bytes > compiledBudget {
			t.Fatalf("after %d texts the memo accounts %d bytes, over its %d", i+1, st.Bytes, compiledBudget)
		}
	}
	st := s.compiled.Stats()
	if st.Hits != 0 || st.Misses != int64(n+1) {
		t.Errorf("%+v: want every one of %d texts a miss, the evicted first one too", st, n+1)
	}
	if st.Entries >= n/2+2 || st.Bytes < compiledBudget/4 {
		t.Errorf("%+v: want under half the %d texts resident and the budget in use", st, n)
	}
}

// structuredTexts is the end-to-end benchmark's structured-families pool:
// the Boolean 3-COLOR query of the four Figure 6–9 families at orders 5,
// 10, 20 and 40. The route pool's free-head variants ("ladder-5/20%") are
// not in it.
func structuredTexts(t testing.TB) ([]string, Config) {
	t.Helper()
	pool, db := routePool(t)
	var texts []string
	for _, c := range pool {
		family, _, _ := strings.Cut(c.name, "-")
		if strings.Contains(c.name, "/") {
			continue
		}
		switch family {
		case "augpath", "ladder", "augladder", "augcircladder":
			texts = append(texts, textOf(t, c.q))
		}
	}
	if len(texts) != 16 {
		t.Fatalf("%d structured texts, want 16", len(texts))
	}
	return texts, Config{DB: db}
}

// BenchmarkCompile is the front end per request on the 16 structured
// texts: miss is a first-seen text (parse, the structural analysis,
// verdict, route and strategy; the four augpath texts route to the full
// reducer and the other twelve to leapfrog), hit a lookup.
func BenchmarkCompile(b *testing.B) {
	texts, cfg := structuredTexts(b)
	s := New(cfg)
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%len(texts) == 0 {
				s.compiled = memo.New[*compiled](compiledBudget)
			}
			if c, hit := s.compile(texts[i%len(texts)], ""); hit || c.status != "" {
				b.Fatalf("hit=%v status=%q", hit, c.status)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		// A request's text is its own copy, never the stored key's bytes.
		stored := make([]string, len(texts))
		for i, text := range texts {
			stored[i] = strings.Clone(text)
			s.compile(stored[i], "")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if c, hit := s.compile(texts[i%len(texts)], ""); !hit || c.status != "" {
				b.Fatalf("hit=%v status=%q", hit, c.status)
			}
		}
	})
}
