package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"projpush/internal/server/client"
)

// worker is the coordinator's view of one fleet member: its transport
// client, which keeps the connections to that member until it is reaped
// or replaced, plus a breaker-style health state machine (closed → open
// → half-open) guarding the whole peer: consecutive transport failures —
// from the health prober or from live forwards — open it, a cooldown
// later one trial request (or probe) is admitted, and a single success
// closes it again. Typed responses count as successes even when they
// carry an error status: a worker that sheds load or rejects a query is
// alive, and routing away from it is admission control's job, not
// failover's.
type worker struct {
	addr string
	cl   *client.Client

	mu       sync.Mutex
	failures int       // consecutive transport failures
	down     bool      // breaker open
	openedAt time.Time // when it opened (cooldown anchor)
	probing  bool      // a half-open trial is in flight
	draining bool      // deregistered; excluded from routing, reaped at idle

	// inFlight counts forwards currently using this worker, so drain can
	// reap it only once idle.
	inFlight atomic.Int64
}

func newWorker(addr string, opt client.Options) *worker {
	opt.Addr = addr
	// The coordinator owns retry policy (failover beats re-dialing a dead
	// peer), so the per-worker transport never retries on its own.
	opt.MaxRetries = -1
	return &worker{addr: addr, cl: client.New(opt)}
}

// eligible reports whether this worker belongs in a failover candidate
// list right now, WITHOUT claiming anything: closed workers qualify, and
// so do half-open ones (cooldown elapsed) even while a trial is in
// flight — enumeration must never consume the trial token, or a backup
// candidate that is listed but never attempted locks the worker out of
// routing and probing forever. The token is claimed by claim/admit only
// when an attempt actually launches.
func (w *worker) eligible(now time.Time, cooldown time.Duration) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.draining {
		return false
	}
	return !w.down || now.Sub(w.openedAt) >= cooldown
}

// claim admits one actual attempt. Closed: yes, no token involved. Open
// within the cooldown: no. Open past the cooldown: one caller gets
// through as the half-open trial (trial=true); concurrent callers are
// held off until that trial resolves via ok, fail, or releaseTrial.
func (w *worker) claim(now time.Time, cooldown time.Duration) (ok, trial bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.draining {
		return false, false
	}
	if !w.down {
		return true, false
	}
	if now.Sub(w.openedAt) >= cooldown && !w.probing {
		w.probing = true
		return true, true
	}
	return false, false
}

// admit is claim for callers that resolve every admitted attempt via
// ok/fail (the health prober) and so never need the token back.
func (w *worker) admit(now time.Time, cooldown time.Duration) bool {
	ok, _ := w.claim(now, cooldown)
	return ok
}

// releaseTrial returns an unresolved half-open trial token: the attempt
// that claimed it was cancelled before proving anything (hedge loser,
// caller gave up), so the worker goes back to plain half-open and the
// next attempt or probe may try again.
func (w *worker) releaseTrial() {
	w.mu.Lock()
	w.probing = false
	w.mu.Unlock()
}

// ok records a successful round trip (typed responses included) and
// closes the breaker.
func (w *worker) ok() {
	w.mu.Lock()
	w.failures = 0
	w.down = false
	w.probing = false
	w.mu.Unlock()
}

// fail records a transport failure. The breaker opens when consecutive
// failures reach threshold, and re-opens immediately (resetting the
// cooldown) when a half-open trial fails.
func (w *worker) fail(now time.Time, threshold int) {
	w.mu.Lock()
	w.failures++
	if w.probing || w.failures >= threshold {
		w.down = true
		w.openedAt = now
		w.probing = false
	}
	w.mu.Unlock()
}

// drain marks the worker as deregistered: no new forwards, reaped once
// inFlight hits zero.
func (w *worker) drain() {
	w.mu.Lock()
	w.draining = true
	w.mu.Unlock()
}

// isDraining reports the drain flag.
func (w *worker) isDraining() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.draining
}

// status renders the health-report state: "up", "down", "half-open" (open
// but past the cooldown, trial pending or in flight), or "draining".
func (w *worker) status(now time.Time, cooldown time.Duration) string {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case w.draining:
		return "draining"
	case !w.down:
		return "up"
	case now.Sub(w.openedAt) >= cooldown:
		return "half-open"
	default:
		return "down"
	}
}
