// Package faultinject provides deterministic, seeded fault injection for
// the execution kernels and the harness's worker pool. It exists so the
// resource governor's failure paths — allocation pressure, slow operators,
// and panics — can be exercised reproducibly in tests and chaos
// runs without depending on real memory exhaustion or scheduler luck.
//
// Injection is configured per point with a firing probability (and, for
// latency, a sleep duration). Each check site draws from a counter-based
// hash of (seed, point, call number), so a fixed (spec, seed) pair fires
// on exactly the same set of calls regardless of goroutine interleaving.
// When injection is disabled — the default — every check is a single
// atomic load and the package compiles down to a no-op on the hot paths.
package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Point identifies one injection site class.
type Point uint8

// The injection points wired into the engine stack.
const (
	// AllocJoin fails "allocations" in the join kernel:
	// JoinProjectLimited (JoinLimited too) reports a budget violation.
	AllocJoin Point = iota
	// AllocProject fails allocations in the projection kernel.
	AllocProject
	// AllocSemijoin fails allocations in the semijoin kernels
	// (SemijoinFilter and the pipeline's NewStreamFilter).
	AllocSemijoin
	// LatencyKernel injects artificial latency at kernel entry, for
	// exercising deadlines and cancellation windows.
	LatencyKernel
	// PanicJoin panics at the join kernel's entry (JoinProjectLimited), under
	// the run boundary of whichever executor called it.
	PanicJoin
	// PanicExperimentWorker panics inside the experiments measurement
	// pool.
	PanicExperimentWorker
	// AcceptFail fails a just-accepted server connection: the listener
	// drops it before a single byte is served, as a dying peer or an
	// exhausted accept queue would.
	AcceptFail
	// ConnDrop severs a server connection mid-response: the write is
	// abandoned and the socket closed, so clients see a torn frame or an
	// unexpected EOF.
	ConnDrop
	// SlowWrite tears a server response in two: the first half of the
	// frame is written, the configured latency elapses, then the rest
	// follows — exercising client read loops and tail-latency bounds.
	SlowWrite
	// ConnReadFail severs a server connection on the read side: the
	// handler closes the socket instead of reading the next request, so
	// the peer's in-flight send or pending response read fails — the
	// receive-path twin of ConnDrop.
	ConnReadFail
	// SlowRead injects latency ahead of a server-side frame read,
	// modeling a congested inbound path or a slow-trickling peer — the
	// read-side twin of SlowWrite.
	SlowRead
	// WorkerKill hard-stops a fleet worker from the supervisor's chaos
	// loop: listener and connections close abruptly with no drain, as a
	// crashed or OOM-killed process would, and the supervisor restarts
	// the worker after its restart delay.
	WorkerKill

	numPoints
)

var pointNames = [numPoints]string{
	AllocJoin:             "join.alloc",
	AllocProject:          "project.alloc",
	AllocSemijoin:         "semijoin.alloc",
	LatencyKernel:         "kernel.latency",
	PanicJoin:             "join.panic",
	PanicExperimentWorker: "experiment.panic",
	AcceptFail:            "accept.fail",
	ConnDrop:              "conn.drop",
	SlowWrite:             "write.slow",
	ConnReadFail:          "conn.read.fail",
	SlowRead:              "read.slow",
	WorkerKill:            "worker.kill",
}

// PointNames returns every valid spec point name, in declaration order.
// CLIs use it to enumerate the points in -faults usage text.
func PointNames() []string {
	out := make([]string, numPoints)
	copy(out, pointNames[:])
	return out
}

// String returns the spec name of the point.
func (p Point) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return fmt.Sprintf("point(%d)", uint8(p))
}

type siteCfg struct {
	prob  float64
	delay time.Duration // LatencyKernel only
}

type config struct {
	seed  uint64
	sites [numPoints]siteCfg
}

var (
	active atomic.Bool
	cfg    atomic.Pointer[config]
	counts [numPoints]atomic.Uint64
)

// Enable parses a spec and arms injection. The spec is a comma-separated
// list of point=probability entries, with an optional duration prefix for
// the latency point:
//
//	join.panic=0.05,join.alloc=0.01,kernel.latency=500us:0.02
//
// Probabilities are in [0, 1]. Enabling resets the per-point call
// counters, so a fixed (spec, seed) pair reproduces the same firing set.
func Enable(spec string, seed int64) error {
	c := &config{seed: uint64(seed)}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, val, ok := strings.Cut(entry, "=")
		if !ok {
			return fmt.Errorf("faultinject: entry %q is not point=prob", entry)
		}
		p, err := pointByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		var delay time.Duration
		if d, rest, ok := strings.Cut(val, ":"); ok {
			delay, err = time.ParseDuration(strings.TrimSpace(d))
			if err != nil {
				return fmt.Errorf("faultinject: bad latency %q: %v", d, err)
			}
			val = rest
		}
		prob, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || prob < 0 || prob > 1 {
			return fmt.Errorf("faultinject: bad probability %q for %s", val, name)
		}
		c.sites[p] = siteCfg{prob: prob, delay: delay}
	}
	for i := range counts {
		counts[i].Store(0)
	}
	cfg.Store(c)
	active.Store(true)
	return nil
}

// Disable disarms all injection points.
func Disable() {
	active.Store(false)
	cfg.Store(nil)
}

// Enabled reports whether any injection is armed.
func Enabled() bool { return active.Load() }

// Calls returns how many times point p was drawn since the last Enable —
// zero for a point that is armed but whose sites no run reached.
func Calls(p Point) uint64 { return counts[p].Load() }

func pointByName(name string) (Point, error) {
	for p, n := range pointNames {
		if n == name {
			return Point(p), nil
		}
	}
	return 0, fmt.Errorf("faultinject: unknown point %q (valid points: %s)",
		name, strings.Join(PointNames(), ", "))
}

// splitmix64 finalizer: spreads (seed, point, count) over 64 bits.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// fire reports whether point p fires on this call, and the site config.
func fire(p Point) (siteCfg, bool) {
	if !active.Load() {
		return siteCfg{}, false
	}
	c := cfg.Load()
	if c == nil {
		return siteCfg{}, false
	}
	s := c.sites[p]
	if s.prob <= 0 {
		return siteCfg{}, false
	}
	n := counts[p].Add(1)
	h := mix(c.seed ^ uint64(p)<<56 ^ n)
	if float64(h>>11)/(1<<53) >= s.prob {
		return siteCfg{}, false
	}
	return s, true
}

// FailAlloc reports whether an injected allocation failure fires at this
// call. Always false when injection is disabled.
func FailAlloc(p Point) bool {
	_, ok := fire(p)
	return ok
}

// Panic panics with a recognizable value when an injected panic fires.
// Call sites must sit under a recover boundary (an executor's run, the
// harness pool).
func Panic(p Point) {
	if _, ok := fire(p); ok {
		panic(fmt.Sprintf("faultinject: injected panic at %s", p))
	}
}

// Sleep blocks for the configured latency when the latency point fires.
func Sleep(p Point) {
	if s, ok := fire(p); ok && s.delay > 0 {
		time.Sleep(s.delay)
	}
}

// Latency reports whether the point fires at this call and, if so, the
// configured delay. Call sites that need to interleave the delay with
// their own work (torn network writes) use this instead of Sleep.
func Latency(p Point) (time.Duration, bool) {
	s, ok := fire(p)
	return s.delay, ok
}
