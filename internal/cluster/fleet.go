package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"projpush/internal/faultinject"
	"projpush/internal/server"
)

// FleetConfig configures StartFleet.
type FleetConfig struct {
	// Workers is the member count (default 4).
	Workers int
	// Worker is the per-member server configuration; WorkerID is set per
	// member ("w0", "w1", ...).
	Worker server.Config
	// Coordinator is the coordinator configuration; DB defaults to the
	// worker database and Workers is filled with the spawned members.
	Coordinator Config
	// RestartDelay is how long a chaos-killed worker stays dead before
	// its supervised restart (default 250ms).
	RestartDelay time.Duration
	// ChaosInterval is the worker.kill polling period (default 100ms;
	// negative disables the chaos loop). Each tick rolls the worker.kill
	// fault point once per live member; a firing hard-stops that member
	// (server.Abort — the crash, not the drain) and schedules its
	// restart, so an armed drill kills and revives workers continuously.
	ChaosInterval time.Duration
}

// Fleet is an in-process worker fleet under one coordinator: the drill
// and single-binary (-fleet) topology. Workers listen on loopback
// ephemeral ports; the coordinator fronts them on the caller's address.
type Fleet struct {
	co *Coordinator

	mu      sync.Mutex
	members []*member
	retired []*server.Server // aborted servers awaiting final join

	restartDelay time.Duration
	stop         chan struct{}
	stopOnce     sync.Once
	wg           sync.WaitGroup
}

// member is one supervised worker slot: the address is fixed for the
// fleet's lifetime (so the ring, and therefore shard affinity, is stable
// across kill/restart), the server behind it is replaced on restart.
type member struct {
	id   string
	addr string
	cfg  server.Config

	mu   sync.Mutex
	srv  *server.Server
	down bool
}

// StartFleet spawns the members and the coordinator and starts serving.
// addr is the coordinator's front address ("127.0.0.1:0" picks a port).
func StartFleet(addr string, cfg FleetConfig) (*Fleet, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.RestartDelay <= 0 {
		cfg.RestartDelay = 250 * time.Millisecond
	}
	if cfg.ChaosInterval == 0 {
		cfg.ChaosInterval = 100 * time.Millisecond
	}
	f := &Fleet{restartDelay: cfg.RestartDelay, stop: make(chan struct{})}
	var addrs []string
	for i := 0; i < cfg.Workers; i++ {
		wcfg := cfg.Worker
		wcfg.WorkerID = fmt.Sprintf("w%d", i)
		m := &member{id: wcfg.WorkerID, cfg: wcfg, srv: server.New(wcfg)}
		if err := m.srv.Listen("127.0.0.1:0"); err != nil {
			f.Close()
			return nil, fmt.Errorf("cluster: worker %s listen: %w", m.id, err)
		}
		m.addr = m.srv.Addr().String()
		f.serve(m.srv)
		f.members = append(f.members, m)
		addrs = append(addrs, m.addr)
	}
	ccfg := cfg.Coordinator
	if ccfg.DB == nil {
		ccfg.DB = cfg.Worker.DB
	}
	ccfg.Workers = addrs
	f.co = New(ccfg)
	if err := f.co.Listen(addr); err != nil {
		f.Close()
		return nil, fmt.Errorf("cluster: coordinator listen: %w", err)
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.co.Serve()
	}()
	if cfg.ChaosInterval > 0 {
		f.wg.Add(1)
		go f.chaosLoop(cfg.ChaosInterval)
	}
	return f, nil
}

// serve runs one worker server's accept loop under the fleet waitgroup.
func (f *Fleet) serve(s *server.Server) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		s.Serve()
	}()
}

// Coordinator returns the fleet's coordinator.
func (f *Fleet) Coordinator() *Coordinator { return f.co }

// Addr returns the coordinator's front address.
func (f *Fleet) Addr() string { return f.co.Addr().String() }

// WorkerAddrs returns the members' fixed addresses, in slot order.
func (f *Fleet) WorkerAddrs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	addrs := make([]string, len(f.members))
	for i, m := range f.members {
		addrs[i] = m.addr
	}
	return addrs
}

// Kill hard-stops worker i as a crash would: listener and connections
// sever immediately, no drain, no deregistration. The coordinator finds
// out the hard way — through failed forwards and probes.
func (f *Fleet) Kill(i int) {
	f.mu.Lock()
	m := f.members[i]
	f.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.down {
		return
	}
	m.down = true
	m.srv.Abort()
	f.mu.Lock()
	f.retired = append(f.retired, m.srv)
	f.mu.Unlock()
}

// Restart revives worker i on its original address with a fresh server,
// retrying the bind briefly (the dead listener's port may linger). The
// ring never changed, so the revived worker gets its exact shard — and
// begins rebuilding its compile memo for it — as soon as a health probe
// notices it.
func (f *Fleet) Restart(i int) error {
	f.mu.Lock()
	m := f.members[i]
	f.mu.Unlock()
	// Bind outside m.mu: the retry loop can take seconds while the dead
	// listener's port lingers, and holding the member mutex through it
	// would block Down(i) — and with it the whole chaos tick — and stall
	// Shutdown's member sweep on this slot. The lock is taken only at the
	// end, to swap the bound server in after re-checking the flags.
	m.mu.Lock()
	down := m.down
	m.mu.Unlock()
	if !down {
		return nil
	}
	srv := server.New(m.cfg)
	var err error
	for deadline := time.Now().Add(5 * time.Second); ; {
		select {
		case <-f.stop:
			return nil
		default:
		}
		if err = srv.Listen(m.addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: worker %s rebind %s: %w", m.id, m.addr, err)
		}
		m.mu.Lock()
		down = m.down
		m.mu.Unlock()
		if !down {
			return nil // a concurrent restart won the slot
		}
		select {
		case <-f.stop:
			return nil
		case <-time.After(20 * time.Millisecond):
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Checked under m.mu: Shutdown closes stop before sweeping members, so
	// a restart that would otherwise revive a worker after its slot was
	// swept (leaking its accept loop past the final join) sees the closed
	// channel here, releases the freshly bound listener, and stands down.
	select {
	case <-f.stop:
		srv.Abort()
		return nil
	default:
	}
	if !m.down {
		srv.Abort()
		return nil
	}
	m.srv = srv
	m.down = false
	f.serve(srv)
	return nil
}

// Down reports whether worker i is currently killed.
func (f *Fleet) Down(i int) bool {
	f.mu.Lock()
	m := f.members[i]
	f.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.down
}

// chaosLoop is the worker-loss drill driver: each tick, each live member
// rolls the worker.kill fault point; a firing kills the member and
// schedules its supervised restart. With faults disarmed the loop is
// inert.
func (f *Fleet) chaosLoop(interval time.Duration) {
	defer f.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			f.mu.Lock()
			n := len(f.members)
			f.mu.Unlock()
			for i := 0; i < n; i++ {
				if f.Down(i) {
					continue
				}
				if faultinject.FailAlloc(faultinject.WorkerKill) {
					f.Kill(i)
					f.wg.Add(1)
					go func(slot int) {
						defer f.wg.Done()
						select {
						case <-f.stop:
						case <-time.After(f.restartDelay):
							f.Restart(slot)
						}
					}(i)
				}
			}
		}
	}
}

// Shutdown drains the whole topology front to back: chaos stops, the
// coordinator drains (no new requests, in-flight ones finish), then
// every member — including servers aborted by kills, whose lingering
// handlers must still be joined — shuts down under ctx's deadline. The
// first error wins but every stage runs.
func (f *Fleet) Shutdown(ctx context.Context) error {
	f.stopOnce.Do(func() { close(f.stop) })
	var first error
	if f.co != nil {
		if err := f.co.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	f.mu.Lock()
	members := append([]*member(nil), f.members...)
	retired := append([]*server.Server(nil), f.retired...)
	f.mu.Unlock()
	for _, m := range members {
		m.mu.Lock()
		srv, down := m.srv, m.down
		m.mu.Unlock()
		if down {
			continue // already in retired
		}
		if err := srv.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	for _, srv := range retired {
		if err := srv.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	f.wg.Wait()
	return first
}

// Close is Shutdown with a short deadline, for construction-failure
// cleanup.
func (f *Fleet) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	f.Shutdown(ctx)
}
