// Package client is the retrying client for the projpushd protocol. It
// distinguishes retryable outcomes — shed under load, server-side
// timeouts, isolated internal faults, torn connections — from terminal
// ones (parse errors, over-width rejections, resource verdicts), and
// retries only the former under exponential backoff with jitter, so a
// thundering herd of failed clients decorrelates instead of
// resynchronizing on the struggling server.
//
// A Client keeps its connections between requests and dials only when
// none is idle; roundTrip says what is kept and what is sent again.
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"projpush/internal/engine"
	"projpush/internal/server"
)

// StatusError is a typed non-OK server response. It aliases the engine's
// sentinels under errors.Is where one applies: an over_width response
// matches engine.ErrOverWidth, a shed or draining response matches
// engine.ErrOverloaded, a timeout matches engine.ErrTimeout (and
// therefore context.DeadlineExceeded).
type StatusError struct {
	Status server.Status
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server: %s: %s", e.Status, e.Msg)
}

// Is aliases wire statuses to the engine's sentinel errors.
func (e *StatusError) Is(target error) bool {
	switch e.Status {
	case server.StatusOverWidth:
		return target == engine.ErrOverWidth
	case server.StatusShed, server.StatusDraining, server.StatusUnavailable:
		return target == engine.ErrOverloaded
	case server.StatusTimeout:
		return target == engine.ErrTimeout || errors.Is(engine.ErrTimeout, target)
	case server.StatusInternal:
		return target == engine.ErrInternal
	case server.StatusResourceLimit:
		return target == engine.ErrMemLimit || target == engine.ErrRowLimit
	case server.StatusCanceled:
		return target == engine.ErrCanceled || errors.Is(engine.ErrCanceled, target)
	}
	return false
}

// Retryable reports whether an error warrants another attempt: network
// failures (dial errors, torn frames, dropped connections) and the
// retryable wire statuses do; terminal statuses and context expiry of
// the caller's own context do not.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		switch se.Status {
		case server.StatusShed, server.StatusTimeout, server.StatusInternal,
			server.StatusDraining, server.StatusUnavailable:
			return true
		}
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	// Anything else at this layer is a transport failure.
	return true
}

// Options configures a Client.
type Options struct {
	// Addr is the server's TCP address.
	Addr string
	// DialTimeout bounds each connection attempt (default 2s).
	DialTimeout time.Duration
	// AttemptTimeout bounds each request/response round trip (default
	// 30s); the per-call context can always end it earlier.
	AttemptTimeout time.Duration
	// MaxRetries is the number of retries after the first attempt
	// (default 4). Only retryable failures are retried.
	MaxRetries int
	// BaseBackoff and MaxBackoff shape the exponential backoff between
	// attempts (defaults 25ms and 2s); each wait is scaled by a uniform
	// jitter in [0.5, 1.5).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed seeds the jitter RNG (0 uses a fixed default; drills want
	// distinct seeds per client).
	Seed int64
	// Jitter, when non-nil, replaces the seeded RNG as the backoff
	// jitter source: each call must return a factor in [0, 1). Failover
	// tests inject a constant so retry schedules are deterministic
	// regardless of how many clients share the process.
	Jitter func() float64
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.AttemptTimeout <= 0 {
		o.AttemptTimeout = 30 * time.Second
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	} else if o.MaxRetries == 0 {
		o.MaxRetries = 4
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 25 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	return o
}

// maxIdle caps the idle connections a Client holds (each costs the peer
// a handler and a watcher goroutine); one returned beyond it is closed.
const maxIdle = 16

// Client issues requests with retries. Safe for concurrent use: a
// connection serves one exchange at a time.
type Client struct {
	opt Options

	mu  sync.Mutex
	rng *rand.Rand

	// idle holds the kept connections (LIFO); closed stops keeping.
	idle   []net.Conn
	closed bool

	// Attempts counts round trips issued (including retries), for
	// drill instrumentation.
	attempts int64
}

// New returns a client for the server at opt.Addr.
func New(opt Options) *Client {
	opt = opt.withDefaults()
	return &Client{opt: opt, rng: rand.New(rand.NewSource(opt.Seed + 1))}
}

// Attempts returns the total round trips issued so far.
func (c *Client) Attempts() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempts
}

// Close releases the idle connections and stops keeping new ones. The
// client stays usable: each later call dials and closes its own.
func (c *Client) Close() {
	c.mu.Lock()
	idle := c.idle
	c.idle, c.closed = nil, true
	c.mu.Unlock()
	for _, conn := range idle {
		conn.Close()
	}
}

// Do sends one request, retrying retryable failures with backoff. On a
// non-OK status it returns the response alongside a *StatusError, so
// callers can inspect the verdict and stats of typed rejections.
func (c *Client) Do(ctx context.Context, req *server.Request) (*server.Response, error) {
	var lastResp *server.Response
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, err := c.roundTrip(ctx, req)
		if err == nil {
			switch resp.Status {
			case server.StatusOK, server.StatusDegraded:
				return resp, nil
			default:
				err = &StatusError{Status: resp.Status, Msg: resp.Error}
			}
		}
		lastResp, lastErr = resp, err
		if attempt >= c.opt.MaxRetries || !Retryable(err) || ctx.Err() != nil {
			return lastResp, lastErr
		}
		if werr := c.wait(ctx, attempt); werr != nil {
			return lastResp, lastErr
		}
	}
}

// Query executes a query text (cqparse format) under the method
// ("" uses the server default).
func (c *Client) Query(ctx context.Context, query, method string) (*server.Response, error) {
	return c.Do(ctx, &server.Request{Op: "query", Query: query, Method: method})
}

// Explain fetches the plan tree and admission verdict without executing.
func (c *Client) Explain(ctx context.Context, query, method string) (*server.Response, error) {
	return c.Do(ctx, &server.Request{Op: "explain", Query: query, Method: method})
}

// Health fetches the server's health counters (no retries beyond the
// usual transport policy).
func (c *Client) Health(ctx context.Context) (*server.Health, error) {
	resp, err := c.Do(ctx, &server.Request{Op: "health"})
	if err != nil {
		return nil, err
	}
	if resp.Health == nil {
		return nil, fmt.Errorf("client: health response without payload")
	}
	return resp.Health, nil
}

// Ready reports server readiness; false (with nil error) while draining.
func (c *Client) Ready(ctx context.Context) (bool, error) {
	resp, err := c.roundTrip(ctx, &server.Request{Op: "ready"})
	if err != nil {
		return false, err
	}
	return resp.Ready != nil && *resp.Ready, nil
}

// roundTrip performs one attempt: take an idle connection or dial, send
// one frame, receive one. The peer may have closed a kept connection for
// reasons that are not faults (a drain's force-close, a restart on the
// same address), so when a reused one fails while the caller's context
// and the attempt deadline are still live, the attempt is sent once more
// on a fresh dial under the same deadline: every op is read-only or
// idempotent. A failure on a fresh connection is the peer's, and reported.
func (c *Client) roundTrip(ctx context.Context, req *server.Request) (*server.Response, error) {
	ctxErr := ctx.Err()
	c.mu.Lock()
	c.attempts++
	var conn net.Conn
	if n := len(c.idle); n > 0 && ctxErr == nil {
		conn, c.idle = c.idle[n-1], c.idle[:n-1]
	}
	c.mu.Unlock()
	if ctxErr != nil {
		// A request that is already over takes no connection.
		return nil, fmt.Errorf("client: %w", ctxErr)
	}
	var deadline time.Time
	for {
		reused := conn != nil
		if !reused {
			d := net.Dialer{Timeout: c.opt.DialTimeout}
			var err error
			if conn, err = d.DialContext(ctx, "tcp", c.opt.Addr); err != nil {
				return nil, fmt.Errorf("client: dial: %w", err)
			}
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(c.opt.AttemptTimeout)
			if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
				deadline = d
			}
		}
		resp, err := c.exchange(ctx, conn, deadline, req)
		if err == nil || !reused || ctx.Err() != nil || !time.Now().Before(deadline) {
			return resp, err
		}
		conn = nil // stale: once more, on a fresh dial
	}
}

// exchange writes one request frame and reads one response frame on
// conn, then keeps the connection only if it is clean: the whole response
// read without error, the cancel hook never fired. Closing any other is
// what tells the server the caller is gone (its Peek watcher cancels the
// run), and why no request can read an earlier request's answer.
func (c *Client) exchange(ctx context.Context, conn net.Conn, deadline time.Time, req *server.Request) (*server.Response, error) {
	conn.SetDeadline(deadline)
	// A canceled context must unblock the read immediately — a hedged
	// request's loser would otherwise sit in ReadFrame until the attempt
	// deadline, holding its connection and goroutine open.
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
	var resp server.Response
	err := server.WriteFrame(conn, req)
	if err != nil {
		err = fmt.Errorf("client: send: %w", err)
	} else if err = server.ReadFrame(conn, &resp); err != nil {
		err = fmt.Errorf("client: receive: %w", err)
	}
	clean := stop() && err == nil
	c.mu.Lock()
	keep := clean && !c.closed && len(c.idle) < maxIdle
	if keep {
		c.idle = append(c.idle, conn)
	}
	c.mu.Unlock()
	if !keep {
		conn.Close()
	}
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// wait sleeps the jittered exponential backoff for the given attempt,
// or returns early when ctx ends. A backoff that would not fit the
// context's remaining deadline is not slept at all: the retry it buys
// could never complete, so the caller gets its terminal answer with the
// deadline budget unspent instead of burned in a doomed sleep.
func (c *Client) wait(ctx context.Context, attempt int) error {
	backoff := c.opt.BaseBackoff << uint(attempt)
	if backoff > c.opt.MaxBackoff || backoff <= 0 {
		backoff = c.opt.MaxBackoff
	}
	d := time.Duration(float64(backoff) * (0.5 + c.jitter()))
	if dl, ok := ctx.Deadline(); ok {
		if remaining := time.Until(dl); d >= remaining {
			return context.DeadlineExceeded
		}
	}
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// jitter draws one backoff jitter factor in [0, 1) from the injected
// source or the seeded RNG.
func (c *Client) jitter() float64 {
	if c.opt.Jitter != nil {
		return c.opt.Jitter()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64()
}
