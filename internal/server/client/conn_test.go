// Black-box tests for the kept connection: a client reuses its
// connections, keeps only a clean one, and treats a kept connection the
// peer closed as stale, not as a failure.
package client_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"projpush/internal/faultinject"
	"projpush/internal/server"
	"projpush/internal/server/client"
)

// connServer is a Handler-mode server that tells connections apart: the
// handler's remote address is unique per accepted connection, so the set
// of remotes seen is the set of connections the clients opened. Its
// queries answer with their own text (Explain), which is how a test
// knows a response belongs to its request:
//
//	"slow"  blocks until its context is canceled (or 2 s) and reports
//	        which on canceled
//	"shed"  and "wide" answer the typed statuses of those names
type connServer struct {
	srv  *server.Server
	addr string

	mu      sync.Mutex
	remotes map[string]int // requests handled per connection

	started  chan struct{} // a "slow" handler is running
	canceled chan error    // its context's error when it returned
}

// startConnServer serves on addr ("127.0.0.1:0" picks a port; a fixed
// address is retried briefly, for the restart test).
func startConnServer(t *testing.T, addr string) *connServer {
	t.Helper()
	cs := &connServer{
		remotes: make(map[string]int),
		// Room for the slow handlers still running when a test stops
		// receiving: one, or the concurrency test's three.
		started:  make(chan struct{}, 4),
		canceled: make(chan error, 4),
	}
	cs.srv = server.New(server.Config{Handler: cs.handle})
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		err := cs.srv.Listen(addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("listen %s: %v", addr, err)
		}
	}
	cs.addr = cs.srv.Addr().String()
	go cs.srv.Serve()
	t.Cleanup(cs.shutdown)
	return cs
}

func (cs *connServer) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	cs.srv.Shutdown(ctx)
}

func (cs *connServer) handle(ctx context.Context, req *server.Request, remote string) *server.Response {
	if req.Op == "health" {
		return &server.Response{Status: server.StatusOK, Health: &server.Health{Ready: true}}
	}
	cs.mu.Lock()
	cs.remotes[remote]++
	cs.mu.Unlock()
	switch req.Query {
	case "slow":
		cs.started <- struct{}{}
		select {
		case <-ctx.Done():
		case <-time.After(2 * time.Second):
		}
		cs.canceled <- ctx.Err()
	case "shed":
		return &server.Response{Status: server.StatusShed, Error: "drill shed"}
	case "wide":
		return &server.Response{Status: server.StatusOverWidth, Error: "drill over width"}
	}
	ready := true
	return &server.Response{Status: server.StatusOK, Explain: req.Query, Ready: &ready}
}

// conns is how many distinct connections have carried a request.
func (cs *connServer) conns() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return len(cs.remotes)
}

// waitOnlyProbeOpen polls the server's open_conns gauge until only the
// asking connection is left.
func (cs *connServer) waitOnlyProbeOpen(t *testing.T) {
	t.Helper()
	probe := client.New(client.Options{Addr: cs.addr, MaxRetries: -1})
	defer probe.Close()
	var h *server.Health
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		var err error
		if h, err = probe.Health(context.Background()); err != nil {
			t.Fatalf("health: %v", err)
		}
		if h.OpenConns == 1 {
			return
		}
	}
	t.Fatalf("open_conns = %d, want 1 (the probe's own): a connection outlived its client", h.OpenConns)
}

// mustAnswer sends query and fails unless the response is that query's.
func mustAnswer(t *testing.T, c *client.Client, query string) {
	t.Helper()
	resp, err := c.Query(context.Background(), query, "")
	if err != nil {
		t.Fatalf("query %q: %v", query, err)
	}
	if resp.Explain != query {
		t.Fatalf("query %q was answered %q: a response crossed requests", query, resp.Explain)
	}
}

func TestSequentialRequestsShareOneConnection(t *testing.T) {
	cs := startConnServer(t, "127.0.0.1:0")
	c := client.New(client.Options{Addr: cs.addr, MaxRetries: -1})
	for i := 0; i < 100; i++ {
		mustAnswer(t, c, fmt.Sprintf("q-%d", i))
	}
	if ready, err := c.Ready(context.Background()); err != nil || !ready {
		t.Fatalf("ready = %v, %v", ready, err)
	}
	if got := cs.conns(); got != 1 {
		t.Errorf("101 sequential requests opened %d connections, want 1", got)
	}
	if got := c.Attempts(); got != 101 {
		t.Errorf("attempts = %d, want one per round trip (101)", got)
	}
	c.Close()
	cs.waitOnlyProbeOpen(t)
	// Closed is not broken: the client dials per call from here on.
	mustAnswer(t, c, "after-close")
	mustAnswer(t, c, "after-close-2")
	if got := cs.conns(); got != 3 {
		t.Errorf("connections = %d, want 3: a closed client keeps none, so each later call dials", got)
	}
	cs.waitOnlyProbeOpen(t)
}

func TestConcurrentCallersOpenAtMostOneConnectionEach(t *testing.T) {
	cs := startConnServer(t, "127.0.0.1:0")
	c := client.New(client.Options{Addr: cs.addr, MaxRetries: -1})
	const callers, each = 8, 50
	var wg sync.WaitGroup
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				query := fmt.Sprintf("q-%d-%d", k, i)
				resp, err := c.Query(context.Background(), query, "")
				if err != nil || resp.Explain != query {
					t.Errorf("query %q: answered %+v, %v", query, resp, err)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	if got := cs.conns(); got < 1 || got > callers {
		t.Errorf("%d concurrent callers opened %d connections, want 1..%d", callers, got, callers)
	}
	c.Close()
	cs.waitOnlyProbeOpen(t)
}

// TestStaleConnectionIsRedialledOnce: a kept connection the peer closed
// for its own reasons (here a drain and a restart on the same address)
// costs the caller nothing, and a peer that is really gone costs one
// refused dial and one error.
func TestStaleConnectionIsRedialledOnce(t *testing.T) {
	cs := startConnServer(t, "127.0.0.1:0")
	c := client.New(client.Options{Addr: cs.addr, MaxRetries: -1})
	defer c.Close()
	mustAnswer(t, c, "before")

	cs.shutdown() // force-closes the kept connection
	restarted := startConnServer(t, cs.addr)
	mustAnswer(t, c, "after-restart")
	if got := c.Attempts(); got != 2 {
		t.Errorf("attempts = %d, want 2: the redial is part of the attempt, not a retry", got)
	}
	if got := restarted.conns(); got != 1 {
		t.Errorf("restarted server saw %d connections, want 1", got)
	}

	restarted.shutdown()
	resp, err := c.Query(context.Background(), "nobody-home", "")
	if err == nil {
		t.Fatalf("query against a stopped server answered %+v", resp)
	}
	if !client.Retryable(err) || !strings.Contains(err.Error(), "client: dial:") {
		t.Errorf("err = %v, want the refused redial reported as a transport error", err)
	}
	if got := c.Attempts(); got != 3 {
		t.Errorf("attempts = %d, want 3: one attempt, one error", got)
	}
}

// TestAbandonedConnectionIsClosedNotKept: a connection whose exchange was
// cancelled or timed out still has that exchange's answer coming. It must
// be closed — which is also what tells the server to stop — and the next
// request must get its own answer on another connection.
func TestAbandonedConnectionIsClosedNotKept(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opt     client.Options
		abandon func(cs *connServer, c *client.Client) error
	}{
		{
			name: "cancelled",
			opt:  client.Options{MaxRetries: -1},
			abandon: func(cs *connServer, c *client.Client) error {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				go func() {
					<-cs.started
					cancel()
				}()
				_, err := c.Query(ctx, "slow", "")
				return err
			},
		},
		{
			name: "attempt timeout",
			opt:  client.Options{MaxRetries: -1, AttemptTimeout: 50 * time.Millisecond},
			abandon: func(cs *connServer, c *client.Client) error {
				_, err := c.Query(context.Background(), "slow", "")
				<-cs.started
				return err
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs := startConnServer(t, "127.0.0.1:0")
			tc.opt.Addr = cs.addr
			c := client.New(tc.opt)
			defer c.Close()
			mustAnswer(t, c, "warm") // the abandoned exchange runs on a kept connection
			if err := tc.abandon(cs, c); err == nil {
				t.Fatal("abandoned request returned no error")
			}
			select {
			case err := <-cs.canceled:
				if err == nil {
					t.Error("the abandoned request's handler ran out its sleep: its connection was not closed")
				}
			case <-time.After(3 * time.Second):
				t.Fatal("the abandoned request's handler never returned")
			}
			mustAnswer(t, c, "next")
			if got := cs.conns(); got != 2 {
				t.Errorf("connections = %d, want 2: the abandoned one closed, one more for what followed", got)
			}
			if got := c.Attempts(); got != 3 {
				t.Errorf("attempts = %d, want 3: an abandoned exchange is not resent", got)
			}
		})
	}
}

// TestAbandonedConnectionsUnderConcurrency runs the no-desync property
// with callers sharing one client, for the race detector: some requests
// are cancelled mid-flight while others complete, and every answer that
// arrives belongs to its request.
func TestAbandonedConnectionsUnderConcurrency(t *testing.T) {
	cs := startConnServer(t, "127.0.0.1:0")
	c := client.New(client.Options{Addr: cs.addr, MaxRetries: -1})
	defer c.Close()
	var wg sync.WaitGroup
	for k := 0; k < 6; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if k%2 == 0 && i%5 == 0 {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
					_, err := c.Query(ctx, "slow", "")
					cancel()
					if err == nil {
						t.Errorf("caller %d: abandoned request returned no error", k)
					}
					continue
				}
				query := fmt.Sprintf("q-%d-%d", k, i)
				resp, err := c.Query(context.Background(), query, "")
				if err != nil || resp.Explain != query {
					t.Errorf("query %q: answered %+v, %v", query, resp, err)
					return
				}
			}
		}(k)
	}
	// Drain the slow handlers' reports so none blocks on a full channel.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-cs.started:
			case <-cs.canceled:
			case <-done:
				return
			}
		}
	}()
	wg.Wait()
	close(done)
}

// TestTypedRejectionKeepsConnectionTornFrameDoesNot: a shed or over-width
// response is a complete frame on a healthy connection; half a frame, or
// none, is not.
func TestTypedRejectionKeepsConnectionTornFrameDoesNot(t *testing.T) {
	cs := startConnServer(t, "127.0.0.1:0")
	c := client.New(client.Options{Addr: cs.addr, MaxRetries: -1, AttemptTimeout: 100 * time.Millisecond})
	defer c.Close()
	mustAnswer(t, c, "warm")
	for query, status := range map[string]server.Status{"shed": server.StatusShed, "wide": server.StatusOverWidth} {
		var se *client.StatusError
		if _, err := c.Query(context.Background(), query, ""); !errors.As(err, &se) || se.Status != status {
			t.Fatalf("query %q: err = %v, want status %s", query, err, status)
		}
	}
	mustAnswer(t, c, "after-rejections")
	if got := cs.conns(); got != 1 {
		t.Fatalf("connections = %d, want 1: a typed rejection leaves the connection clean", got)
	}

	// Half a frame, then the attempt deadline.
	defer faultinject.Disable()
	if err := faultinject.Enable("write.slow=400ms:1", 1); err != nil {
		t.Fatal(err)
	}
	if resp, err := c.Query(context.Background(), "torn", ""); err == nil {
		t.Fatalf("torn frame answered %+v", resp)
	}
	faultinject.Disable()
	mustAnswer(t, c, "after-torn")
	if got := cs.conns(); got != 2 {
		t.Errorf("connections = %d, want 2: a connection with half a frame on it is not kept", got)
	}

	// No frame at all: the server drops the kept connection instead of
	// answering, and the redial's too. One attempt, one error, no
	// connection kept.
	if err := faultinject.Enable("conn.drop=1", 1); err != nil {
		t.Fatal(err)
	}
	attempts := c.Attempts()
	if resp, err := c.Query(context.Background(), "dropped", ""); err == nil {
		t.Fatalf("dropped connection answered %+v", resp)
	}
	faultinject.Disable()
	if got := c.Attempts() - attempts; got != 1 {
		t.Errorf("attempts = %d, want 1", got)
	}
	if got := cs.conns(); got != 3 {
		t.Errorf("connections = %d, want 3: the dropped request was resent once, on a fresh dial", got)
	}
	mustAnswer(t, c, "after-drop")
	if got := cs.conns(); got != 4 {
		t.Errorf("connections = %d, want 4: neither dropped connection was kept", got)
	}
}

var benchReady bool

// BenchmarkClientRoundTrip is the cost of one request/response pair on
// loopback with nothing behind it (the ready op): on the connection the
// client kept, and on a connection dialed for it — a new Client per
// iteration, which is what every request paid when the client dialed per
// round trip.
func BenchmarkClientRoundTrip(b *testing.B) {
	srv := server.New(server.Config{})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	go srv.Serve()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	opt := client.Options{Addr: srv.Addr().String(), MaxRetries: -1}
	ctx := context.Background()
	b.Run("kept", func(b *testing.B) {
		c := client.New(opt)
		defer c.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ready, err := c.Ready(ctx)
			if err != nil {
				b.Fatal(err)
			}
			benchReady = ready
		}
	})
	b.Run("dialed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := client.New(opt)
			ready, err := c.Ready(ctx)
			if err != nil {
				b.Fatal(err)
			}
			benchReady = ready
			c.Close()
		}
	})
}
