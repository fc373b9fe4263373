// Command projpushd serves project-join queries over TCP: a hardened,
// long-running front end to the projpush engine with width-aware
// admission control, load shedding, a degradation ladder under every
// request, and a graceful SIGTERM drain.
//
//	projpushd -addr :7433 -colors 3 -maxwidth 6 -concurrency 8
//	projpushd -addr :7433 -db instance.cq -log requests.log
//
// Fleet topologies (internal/cluster):
//
//	projpushd -addr :7433 -fleet 4 -hedge        # coordinator + 4 in-process workers
//	projpushd -addr :7434 -join 127.0.0.1:7433   # worker that registers with a coordinator
//
// Clients speak the length-prefixed frame protocol of internal/server;
// cmd/loadgen drives it under load, and `projpush -connect` sends a
// single generated instance.
package main

import (
	"context"
	_ "expvar" // /debug/vars on the -debug listener
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // /debug/pprof/ on the -debug listener
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"projpush/internal/cluster"
	"projpush/internal/cq"
	"projpush/internal/cqparse"
	"projpush/internal/faultinject"
	"projpush/internal/instance"
	"projpush/internal/server"
	"projpush/internal/server/client"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7433", "TCP listen address")
		dbFile      = flag.String("db", "", "serve this cqparse database (rel blocks; any query clause is ignored as a sample)")
		colors      = flag.Int("colors", 3, "with no -db, serve the k-COLOR edge database for this k")
		maxWidth    = flag.Int("maxwidth", 0, "admission threshold on predicted plan width (0 = off)")
		maxAGM      = flag.Float64("maxagm", 0, "admission threshold on the AGM output bound, in log2 rows (0 = off)")
		maxPeak     = flag.Int("maxpeak", 0, "admission threshold on predicted streaming peak bytes, in MiB (0 = off)")
		concurrency = flag.Int("concurrency", 4, "concurrently executing requests")
		queue       = flag.Int("queue", 0, "bounded wait queue ahead of the executors (0 = 2x concurrency)")
		queueWait   = flag.Duration("queuewait", time.Second, "max time a request may queue before being shed")
		timeout     = flag.Duration("timeout", 10*time.Second, "per-request execution deadline")
		maxRows     = flag.Int("maxrows", 10_000_000, "intermediate row cap per request (0 = unlimited)")
		membudget   = flag.Int("membudget", 256, "byte budget per request in MiB: live bytes for a routed plan and for every degraded attempt; everything materialized only for a named plan method's own run (0 = unlimited)")
		drain       = flag.Duration("drain", 15*time.Second, "SIGTERM drain deadline for in-flight requests")
		logFile     = flag.String("log", "", "append structured per-request JSON logs here (default stderr; 'none' disables)")
		faults      = flag.String("faults", "", "fault-injection spec for chaos drills, e.g. 'conn.drop=0.05,join.panic=0.02'; points: "+strings.Join(faultinject.PointNames(), ", "))
		faultseed   = flag.Int64("faultseed", 1, "seed for the fault-injection coin flips")
		fleetN      = flag.Int("fleet", 0, "serve a fault-tolerant fleet: this many in-process workers behind a coordinator on -addr (0 = single server)")
		hedge       = flag.Bool("hedge", false, "fleet mode: hedge slow requests against a second replica after the p95 delay")
		join        = flag.String("join", "", "worker mode: register with the fleet coordinator at this address after listening, deregister before draining")
		workerID    = flag.String("workerid", "", "fleet member id stamped on every response (worker mode; default the listen address)")
		debug       = flag.String("debug", "", "serve net/http/pprof and expvar on this address (empty = off)")
	)
	flag.Parse()

	if *debug != "" {
		ln, err := serveDebug(*debug)
		if err != nil {
			fatal(fmt.Errorf("-debug: %w", err))
		}
		fmt.Fprintf(os.Stderr, "projpushd: debug listener on %s\n", ln.Addr())
	}

	if *faults != "" {
		if err := faultinject.Enable(*faults, *faultseed); err != nil {
			fatal(fmt.Errorf("-faults: %w", err))
		}
		defer faultinject.Disable()
	}

	db, err := loadDB(*dbFile, *colors)
	if err != nil {
		fatal(err)
	}

	cfg := server.Config{
		DB:                db,
		MaxWidth:          *maxWidth,
		MaxAGMLog2:        *maxAGM,
		MaxPredictedBytes: int64(*maxPeak) << 20,
		MaxConcurrent:     *concurrency,
		MaxQueue:          *queue,
		QueueWait:         *queueWait,
		RequestTimeout:    *timeout,
		MaxRows:           *maxRows,
		MaxBytes:          int64(*membudget) << 20,
	}
	switch *logFile {
	case "":
		cfg.Log = os.Stderr
	case "none":
	default:
		f, err := os.OpenFile(*logFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		cfg.Log = f
	}

	// SIGTERM/SIGINT: readiness flips false, the listener closes,
	// in-flight requests drain under the deadline.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)

	if *fleetN > 0 {
		fl, err := cluster.StartFleet(*addr, cluster.FleetConfig{
			Workers: *fleetN,
			Worker:  cfg,
			Coordinator: cluster.Config{
				DB:             db,
				Hedge:          *hedge,
				RequestTimeout: *timeout,
				LocalFallback:  true,
				MaxRows:        *maxRows,
				MaxBytes:       int64(*membudget) << 20,
				Log:            cfg.Log,
			},
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "projpushd: coordinating %d workers (%s) on %s (hedge=%v)\n",
			*fleetN, strings.Join(fl.WorkerAddrs(), ", "), fl.Addr(), *hedge)
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "projpushd: %v, draining fleet (deadline %v)\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		err = fl.Shutdown(ctx)
		cancel()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "projpushd: fleet drained cleanly")
		return
	}

	cfg.WorkerID = *workerID
	if cfg.WorkerID == "" && *join != "" {
		cfg.WorkerID = *addr
	}
	srv := server.New(cfg)
	if err := srv.Listen(*addr); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "projpushd: serving %d relations on %s (maxwidth=%d concurrency=%d)\n",
		len(db), srv.Addr(), *maxWidth, *concurrency)

	// Worker mode: announce ourselves to the coordinator; it routes our
	// shard of the affinity space here until we deregister.
	var coord *client.Client
	if *join != "" {
		coord = client.New(client.Options{Addr: *join})
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err := coord.Do(ctx, &server.Request{Op: "register", Addr: srv.Addr().String()})
		cancel()
		if err != nil {
			fatal(fmt.Errorf("-join %s: %w", *join, err))
		}
		coord.Close() // next used to deregister, at shutdown: hold no connection until then
		fmt.Fprintf(os.Stderr, "projpushd: registered with coordinator %s\n", *join)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "projpushd: %v, draining (deadline %v)\n", sig, *drain)
		if coord != nil {
			// Deregister first: the coordinator re-routes our shard to the
			// surviving replicas while our in-flight requests finish.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if _, err := coord.Do(ctx, &server.Request{Op: "deregister", Addr: srv.Addr().String()}); err != nil {
				fmt.Fprintf(os.Stderr, "projpushd: deregister: %v\n", err)
			}
			cancel()
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			fatal(err)
		}
		<-done
		fmt.Fprintln(os.Stderr, "projpushd: drained cleanly")
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	}
}

// serveDebug serves net/http/pprof's and expvar's default-mux handlers on addr.
func serveDebug(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err == nil {
		go http.Serve(ln, nil)
	}
	return ln, err
}

// loadDB builds the served database: a cqparse file's rel blocks, or the
// k-COLOR edge database.
func loadDB(path string, colors int) (cq.Database, error) {
	if path == "" {
		return instance.ColorDatabase(colors), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	parsed, err := cqparse.Parse(f)
	if err != nil {
		return nil, err
	}
	return parsed.DB, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "projpushd:", err)
	os.Exit(1)
}
