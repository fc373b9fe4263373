package main

import (
	"math"
	"runtime"
	"sync"
	"time"

	"projpush/internal/stats"
)

// The box is two cores of a shared host. A neighbour on the other
// hardware thread of a core slows everything limited by instruction
// throughput, for seconds or for minutes at a time, and leaves code
// limited by latency alone: beside this benchmark a sum over an
// L1-resident array took between 1.2 and 2.1 times as long as a chain
// of dependent multiplies, the chain moved by 2 %, and every workload's
// throughput followed the ratio of the two as a power law (r² 0.91–0.97
// over twelve runs each, exponents 0.47–0.62). The steal counter stays near
// 0 through all of it and nothing in the guest can move the neighbour
// away, so the benchmark measures the ratio beside each timed phase and
// reports every end-to-end timing as it would be at the quiet ratio.
const (
	// quietRatio is the ratio under this benchmark's load while no
	// neighbour is active, on the Xeon @ 2.1 GHz the benchmark was
	// written on. On another CPU it shifts every adjusted timing by
	// one constant factor, which no comparison on that box sees.
	quietRatio = 1.2
	// hostExponent is the one exponent used for every workload: timings
	// scale with (ratio / quietRatio) ^ hostExponent.
	hostExponent = 0.55
)

// hostProbe samples the ratio every 20 ms on its own thread, about 2 %
// of one core.
type hostProbe struct {
	mu          sync.Mutex
	at          []time.Time
	scan, chain []float64 // seconds per fixed piece of work
	stop        chan struct{}
	stopped     sync.WaitGroup
	once        sync.Once
	sink        uint64 // keeps the work from being optimized away
}

func startHostProbe() *hostProbe {
	p := &hostProbe{stop: make(chan struct{})}
	p.stopped.Add(1)
	go func() {
		defer p.stopped.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		arr := make([]uint64, 4096) // 32 KiB: stays in the L1 cache
		for i := range arr {
			arr[i] = uint64(i)
		}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			// About a quarter of a millisecond each, short enough that
			// being descheduled in the middle is rare and the medians
			// ignore it.
			t0 := time.Now()
			var sum uint64
			for r := 0; r < 160; r++ {
				for _, v := range arr {
					sum += v
				}
			}
			t1 := time.Now()
			h := uint64(14695981039346656037)
			for i := uint64(0); i < 100000; i++ {
				h = (h ^ i) * 1099511628211
				h ^= h >> 13
			}
			t2 := time.Now()
			p.mu.Lock()
			p.sink += sum + h
			p.at = append(p.at, t0)
			p.scan = append(p.scan, t1.Sub(t0).Seconds())
			p.chain = append(p.chain, t2.Sub(t1).Seconds())
			p.mu.Unlock()
		}
	}()
	return p
}

// close stops the probe and waits for its thread; it may be called twice.
func (p *hostProbe) close() {
	p.once.Do(func() { close(p.stop) })
	p.stopped.Wait()
}

// ratio is the median array sum over the median multiply chain among the
// samples taken from `from` to `to`, or quietRatio if there are none.
func (p *hostProbe) ratio(from, to time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var scan, chain []float64
	for i, at := range p.at {
		if !at.Before(from) && at.Before(to) {
			scan = append(scan, p.scan[i])
			chain = append(chain, p.chain[i])
		}
	}
	if len(scan) == 0 {
		return quietRatio
	}
	return stats.Median(scan) / stats.Median(chain)
}

// slowdown is how much slower than on a quiet host a timing measured at
// `ratio` is: divide a duration by it, multiply a rate by it.
func slowdown(ratio float64) float64 {
	return math.Pow(ratio/quietRatio, hostExponent)
}
