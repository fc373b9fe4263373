package server_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"projpush/internal/cqparse"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/server"
	"projpush/internal/server/client"
)

// TestOversizedAnswerRefusedNotRetried: an answer that does not fit one
// frame used to fail the server's write, drop the socket, and reach the
// client as "receive: EOF" — a transport fault, so the client ran the
// same query MaxRetries more times. Now it is one execution, one typed
// terminal resource_limit, no retry, and the connection survives.
func TestOversizedAnswerRefusedNotRetried(t *testing.T) {
	g := graph.AugmentedPath(5)
	q, err := instance.ColorQuery(g, instance.EdgeVertices(g)) // every vertex free: a wide answer
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := cqparse.WriteQuery(&text, q); err != nil {
		t.Fatal(err)
	}

	const frameCap = 4096
	var log bytes.Buffer
	srv := server.New(server.WithMaxFrame(server.Config{DB: instance.ColorDatabase(3), Log: &log}, frameCap))
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve()
	}()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	}()
	addr := srv.Addr().String()

	cl := client.New(client.Options{Addr: addr, MaxRetries: 4, BaseBackoff: time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := cl.Query(ctx, text.String(), "")
	var se *client.StatusError
	if !errors.As(err, &se) || se.Status != server.StatusResourceLimit {
		t.Fatalf("err = %v, want a typed resource_limit", err)
	}
	if client.Retryable(err) || cl.Attempts() != 1 {
		t.Fatalf("retryable = %v after %d attempts, want terminal after 1", client.Retryable(err), cl.Attempts())
	}
	for _, part := range []string{"rows", "columns", "bytes", "4096"} {
		if !strings.Contains(resp.Error, part) {
			t.Errorf("error %q does not mention %q", resp.Error, part)
		}
	}
	if resp.Answer != nil || resp.Stats == nil || resp.Verdict == nil {
		t.Errorf("refusal carries answer=%v stats=%v verdict=%v, want no answer but the run's stats and verdict",
			resp.Answer != nil, resp.Stats != nil, resp.Verdict != nil)
	}
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Served != 1 || h.Failed != 1 {
		t.Errorf("served %d failed %d, want the query executed once and its delivery failed once", h.Served, h.Failed)
	}
	if n := strings.Count(log.String(), `"op":"query"`); n != 1 {
		t.Errorf("%d query lines in the request log, want 1:\n%s", n, log.String())
	}

	// The refusal does not cost the connection.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	for _, req := range []*server.Request{{Op: "query", Query: text.String()}, {Op: "ready"}} {
		if err := server.WriteFrame(conn, req); err != nil {
			t.Fatal(err)
		}
		var r server.Response
		if err := server.ReadFrame(conn, &r); err != nil {
			t.Fatalf("%s on the shared connection: %v", req.Op, err)
		}
		if want := map[string]server.Status{"query": server.StatusResourceLimit, "ready": server.StatusOK}[req.Op]; r.Status != want {
			t.Fatalf("%s: status %s, want %s", req.Op, r.Status, want)
		}
	}
}
