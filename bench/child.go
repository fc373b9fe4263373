package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"projpush/internal/server/client"
)

// repoRoot walks up from the working directory to the checkout that
// holds cmd/projpushd (`go run -C bench .` starts in bench/).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "projpushd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no cmd/projpushd above the working directory; run from the repository")
		}
		dir = parent
	}
}

// buildServer compiles cmd/projpushd from the checkout's sources into
// .bench_build/ and returns the binary's path.
func buildServer(ctx context.Context, root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "projpushd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/projpushd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: go build ./cmd/projpushd: %w\n%s", err, out)
	}
	return bin, nil
}

// child is a running projpushd.
type child struct {
	cmd    *exec.Cmd
	argv   []string
	addr   string
	stderr bytes.Buffer
	exited chan struct{} // closed when Wait returned
	err    error         // Wait's result, valid after exited
}

// serverArgs is the server command line: projpushd defaults plus the
// generated database, no request log, and the fleet size if any.
func serverArgs(addr, dbPath string, fleet int) []string {
	args := []string{"-addr", addr, "-db", dbPath, "-log", "none"}
	if fleet > 0 {
		args = append(args, "-fleet", strconv.Itoa(fleet))
	}
	return args
}

// freeAddr picks a loopback port nobody holds right now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startChild spawns projpushd and waits until it answers `ready` true.
// A child that never becomes ready is stopped and reported; the caller
// never owns a half-started process. Losing the race for the picked
// port (the child exits before it is ready) is retried twice.
func startChild(ctx context.Context, bin, dbPath string, fleet int) (*child, error) {
	for attempt := 0; ; attempt++ {
		c, exited, err := spawn(ctx, bin, dbPath, fleet)
		if err == nil || !exited || attempt == 2 {
			return c, err
		}
	}
}

// spawn is one attempt of startChild; exited reports that the child
// died on its own before becoming ready.
func spawn(ctx context.Context, bin, dbPath string, fleet int) (c *child, exited bool, err error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, false, fmt.Errorf("bench: pick port: %w", err)
	}
	c = &child{addr: addr, exited: make(chan struct{})}
	args := serverArgs(addr, dbPath, fleet)
	c.argv = append([]string{"projpushd"}, args...)
	c.cmd = exec.Command(bin, args...)
	c.cmd.Stderr = &c.stderr
	if err := c.cmd.Start(); err != nil {
		return nil, false, fmt.Errorf("bench: start projpushd: %w", err)
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.exited)
	}()

	cl := client.New(client.Options{Addr: addr, MaxRetries: -1, DialTimeout: time.Second})
	deadline := time.NewTimer(20 * time.Second)
	defer deadline.Stop()
	for {
		if ok, err := cl.Ready(ctx); err == nil && ok {
			return c, false, nil
		}
		select {
		case <-c.exited:
			return nil, true, fmt.Errorf("bench: projpushd exited before ready: %v\n%s", c.err, c.stderr.String())
		case <-deadline.C:
			c.stop()
			return nil, false, fmt.Errorf("bench: projpushd not ready after 20s\n%s", c.stderr.String())
		case <-ctx.Done():
			c.stop()
			return nil, false, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop drains the child with SIGTERM, kills it if the drain takes over
// 10 s, always reaps it, and reports a panic or an unclean drain found
// in its stderr.
func (c *child) stop() error {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-c.exited
		return fmt.Errorf("bench: projpushd ignored SIGTERM for 10s, killed\n%s", c.stderr.String())
	}
	log := c.stderr.String()
	switch {
	case strings.Contains(log, "panic"):
		return fmt.Errorf("bench: projpushd panicked\n%s", log)
	case c.err != nil:
		return fmt.Errorf("bench: projpushd exited uncleanly: %v\n%s", c.err, log)
	case !strings.Contains(log, "drained cleanly"):
		return fmt.Errorf("bench: projpushd did not report a clean drain\n%s", log)
	}
	return nil
}

// procStat is a snapshot of a process's CPU time and peak resident set
// from /proc.
type procStat struct {
	cpu   time.Duration // utime + stime
	hwmMB float64       // VmHWM
}

// clockTick is the kernel's USER_HZ, fixed at 100 on Linux.
const clockTick = 10 * time.Millisecond

func readProc(pid int) (procStat, error) {
	var st procStat
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return st, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return st, fmt.Errorf("bench: short /proc/%d/stat", pid)
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	st.cpu = time.Duration(utime+stime) * clockTick

	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return st, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			st.hwmMB = kb / 1024
		}
	}
	return st, nil
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
