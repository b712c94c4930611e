package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one started qcfe-serve or qcfe-router process.
type daemon struct {
	name    string
	url     string
	cmd     *exec.Cmd
	logPath string
	done    chan struct{} // closed once the process has exited
	stopped bool          // set before a deliberate stop
	mu      sync.Mutex
}

var (
	daemonsMu sync.Mutex
	daemons   []*daemon
)

// freePort reserves a loopback port and releases it for a daemon.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches bin with args plus -addr on a free loopback
// port. Its output goes to a log file in the work directory, shown if
// the run fails.
func startDaemon(c config, bin string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	d := &daemon{
		name:    bin,
		url:     "http://" + addr,
		logPath: filepath.Join(c.work, fmt.Sprintf("%s-%d.log", bin, port)),
		done:    make(chan struct{}),
	}
	logf, err := os.Create(d.logPath)
	if err != nil {
		return nil, err
	}
	d.cmd = exec.Command(filepath.Join(c.bin, bin), append(args, "-addr", addr)...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even if it is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	daemonsMu.Lock()
	daemons = append(daemons, d)
	daemonsMu.Unlock()
	go func() {
		d.cmd.Wait()
		logf.Close()
		close(d.done)
	}()
	return d, nil
}

// exitedUnexpectedly reports a daemon that died without being stopped.
func (d *daemon) exitedUnexpectedly() bool {
	select {
	case <-d.done:
		d.mu.Lock()
		defer d.mu.Unlock()
		return !d.stopped
	default:
		return false
	}
}

// waitHealthy polls GET /healthz until it answers 200.
func (d *daemon) waitHealthy(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		if d.exitedUnexpectedly() {
			return fmt.Errorf("%s exited during start-up: %s", d.name, d.logTail())
		}
		resp, err := client.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s not healthy after %v: %s", d.name, timeout, d.logTail())
}

// vmHWMMB reads a process's peak resident set size (VmHWM) in MB.
func vmHWMMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for process %d", pid)
}

// stop ends the daemon (SIGTERM, then SIGKILL after 5s) and waits for
// it to exit.
func (d *daemon) stop() {
	d.mu.Lock()
	d.stopped = true
	d.mu.Unlock()
	select {
	case <-d.done:
		return
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// logTail is the end of the daemon's output, for error messages.
func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.logPath)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(bytes.TrimSpace(b))
}

// stopAll stops every daemon still running.
func stopAll() {
	daemonsMu.Lock()
	ds := daemons
	daemons = nil
	daemonsMu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// checkAlive fails the run when any daemon died on its own: a crash is
// a failure of the program, never restarted or retried.
func checkAlive(ds []*daemon) error {
	for _, d := range ds {
		if d.exitedUnexpectedly() {
			return fmt.Errorf("%s exited during the run: %s", d.name, d.logTail())
		}
	}
	return nil
}

// peakRSS sums VmHWM over the daemons.
func peakRSS(ds []*daemon) (float64, error) {
	total := 0.0
	for _, d := range ds {
		mb, err := vmHWMMB(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// startHealthy starts one daemon and waits until it is healthy.
func startHealthy(ctx context.Context, c config, bin string, args ...string) (*daemon, error) {
	d, err := startDaemon(c, bin, args...)
	if err != nil {
		return nil, err
	}
	if err := d.waitHealthy(ctx, 60*time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}
