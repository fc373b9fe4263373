package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"projpush/internal/cqparse"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/server"
	"projpush/internal/server/client"
)

// TestDebugListener serves a live server with the -debug listener beside
// it, sends queries while a 1 s CPU profile runs, and checks
// that the profile and /debug/vars come back.
func TestDebugListener(t *testing.T) {
	srv := server.New(server.Config{DB: instance.ColorDatabase(3), MaxConcurrent: 2})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Shutdown(context.Background())
	ln, err := serveDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	base := "http://" + ln.Addr().String()

	// The Boolean 3-COLOR query of the 7-wheel, from bench's cyclic pool.
	g := graph.Wheel(7)
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	cqparse.WriteQuery(&text, q)
	req := &server.Request{Op: "query", Query: text.String()}
	c := client.New(client.Options{Addr: srv.Addr().String()})
	defer c.Close()
	do := func() (*server.Response, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return c.Do(ctx, req)
	}
	if resp, err := do(); err != nil || resp.Status != server.StatusOK {
		t.Fatalf("query: %v %+v", err, resp)
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	defer func() { close(stop); <-stopped }()
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				do()
			}
		}
	}()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s: %s", path, resp.Status, body)
		}
		return body
	}
	// A CPU profile is gzipped protobuf.
	if prof := get("/debug/pprof/profile?seconds=1"); len(prof) < 2 || prof[0] != 0x1f || prof[1] != 0x8b {
		t.Fatalf("CPU profile is not gzip (%d bytes)", len(prof))
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatal(err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Fatal("/debug/vars has no memstats")
	}
}
