package main

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"projpush/internal/cqparse"
	"projpush/internal/server"
	"projpush/internal/server/client"
)

func dbBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeDB(&buf, generateDB(seed)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sequence returns the first n pool indexes client sends.
func (w *workload) sequence(seed int64, client, n int) []int {
	s := w.sampler(seed, client)
	seq := make([]int, n)
	for i := range seq {
		seq[i] = s.next()
	}
	return seq
}

// sequences is every workload's per-client request text sequence.
func sequences(seed int64, n int) map[string][][]string {
	out := make(map[string][][]string)
	for _, w := range generateWorkloads() {
		for c := 0; c < clients; c++ {
			var texts []string
			for _, q := range w.sequence(seed, c, n) {
				texts = append(texts, w.Pool[q].Text)
			}
			out[w.Name] = append(out[w.Name], texts)
		}
	}
	return out
}

func TestGenerationIsAFunctionOfTheSeed(t *testing.T) {
	if !bytes.Equal(dbBytes(t, 7), dbBytes(t, 7)) {
		t.Error("same seed, different database files")
	}
	if bytes.Equal(dbBytes(t, 7), dbBytes(t, 8)) {
		t.Error("different seeds, identical database files")
	}
	a, b, other := sequences(7, 300), sequences(7, 300), sequences(8, 300)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different request sequences")
	}
	for name := range a {
		if reflect.DeepEqual(a[name], other[name]) {
			t.Errorf("%s: different seeds, identical request sequences", name)
		}
		if reflect.DeepEqual(a[name][0], a[name][1]) {
			t.Errorf("%s: both clients send the same sequence", name)
		}
	}
	if !reflect.DeepEqual(a["fleet-structured"], a["structured-families"]) {
		t.Error("fleet-structured does not replay structured-families' sequence")
	}
}

// Every epoch of a client's sequence is a permutation of the pool, so
// the mix a run measures does not depend on sampling luck.
func TestSequenceVisitsEveryQueryEqually(t *testing.T) {
	for _, w := range generateWorkloads() {
		counts := make([]int, len(w.Pool))
		for _, q := range w.sequence(3, 0, 5*len(w.Pool)) {
			counts[q]++
		}
		for q, n := range counts {
			if n != 5 {
				t.Errorf("%s: %s sent %d times in 5 epochs", w.Name, w.Pool[q].Name, n)
			}
		}
	}
}

// Every generated query must parse against the generated database and
// pass a default server's admission, or the workload would measure
// rejections.
func TestEveryQueryParsesAndIsAdmitted(t *testing.T) {
	parsed, err := cqparse.Parse(bytes.NewReader(dbBytes(t, 1)))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{DB: parsed.DB})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
		<-done
	}()

	c := client.New(client.Options{Addr: srv.Addr().String(), MaxRetries: -1})
	routes := make(map[string]map[string]bool)
	for _, w := range generateWorkloads() {
		routes[w.Name] = make(map[string]bool)
		for _, q := range w.Pool {
			resp, err := c.Explain(context.Background(), q.Text, "")
			if err != nil {
				t.Errorf("%s/%s: %v", w.Name, q.Name, err)
				continue
			}
			if resp.Verdict == nil || !resp.Verdict.Admitted {
				t.Errorf("%s/%s: not admitted: %+v", w.Name, q.Name, resp.Verdict)
				continue
			}
			routes[w.Name][resp.Verdict.Method] = true
		}
	}
	// The workloads exist to cover the routing cascade.
	if n := len(routes["cyclic-dense"]); n < 3 {
		t.Errorf("cyclic-dense covers %d routes %v, want at least 3", n, routes["cyclic-dense"])
	}
	for _, r := range []string{"yannakakis", "stream"} {
		if !routes["structured-families"][r] {
			t.Errorf("structured-families does not reach the %s route", r)
		}
	}
}
