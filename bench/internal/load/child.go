// Package load is the benchmark's harness and load generator: it spawns the
// serve child, drives one of the four workloads against it over loopback
// sockets through the real SDK, reads the child's CPU and memory from /proc,
// and checks every output against the generated inputs before it reports a
// number.
package load

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"encore/bench/internal/serve"
)

// clockTick is the kernel's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat. It is 100 on every Linux the benchmark targets.
const clockTick = 10 * time.Millisecond

// stopGrace is how long a child gets to finish its orderly shutdown (drain
// the forwarder, sync and close the WAL) before it is killed.
const stopGrace = 20 * time.Second

// Child is one running `encore-bench serve` process.
type Child struct {
	Ports serve.Ports

	cmd     *exec.Cmd
	stderr  *tailBuffer
	waitErr chan error
	control *http.Client
	once    sync.Once
}

// tailBuffer keeps the last few kilobytes the child wrote to standard error,
// for the failure report.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 8192; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// ServeCommand builds the command that runs the serve role with the given
// arguments. The benchmark binary re-executes itself; the package's tests
// re-execute the test binary.
type ServeCommand func(args []string) *exec.Cmd

// StartChild spawns the serve role for cfg and waits for its port report.
func StartChild(ctx context.Context, command ServeCommand, cfg serve.Config) (*Child, error) {
	cmd := command(cfg.Args())
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &Child{
		cmd:     cmd,
		stderr:  &tailBuffer{},
		waitErr: make(chan error, 1),
		control: &http.Client{Timeout: 2 * time.Minute},
	}
	cmd.Stderr = c.stderr
	// The child must not outlive the harness, however the harness ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("load: starting serve: %w", err)
	}
	lines := make(chan string, 1)
	go func() {
		r := bufio.NewReader(stdout)
		line, _ := r.ReadString('\n')
		lines <- line
		_, _ = io.Copy(io.Discard, r) // keep the pipe drained until the child exits
		c.waitErr <- cmd.Wait()
	}()
	select {
	case line := <-lines:
		if err := json.Unmarshal([]byte(line), &c.Ports); err != nil {
			c.Kill()
			return nil, fmt.Errorf("load: serve did not report its ports (%q): %s", strings.TrimSpace(line), c.stderr)
		}
	case <-ctx.Done():
		c.Kill()
		return nil, fmt.Errorf("load: waiting for serve to start: %w", ctx.Err())
	}
	return c, nil
}

// Stop asks the child to shut down in order and waits for it; a child that
// overstays stopGrace, or exits non-zero, is an error.
func (c *Child) Stop() error {
	var err error
	c.once.Do(func() {
		_ = c.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case werr := <-c.waitErr:
			if werr != nil {
				err = fmt.Errorf("load: serve exited badly: %w: %s", werr, c.stderr)
			}
		case <-time.After(stopGrace):
			_ = c.cmd.Process.Kill()
			<-c.waitErr
			err = fmt.Errorf("load: serve ignored SIGTERM for %v and was killed: %s", stopGrace, c.stderr)
		}
	})
	return err
}

// Kill ends the child at once and waits until it is gone. It is what every
// failure path calls; after a Stop it does nothing.
func (c *Child) Kill() {
	c.once.Do(func() {
		_ = c.cmd.Process.Kill()
		<-c.waitErr
	})
}

// Stderr returns the tail of the child's standard error.
func (c *Child) Stderr() string { return c.stderr.String() }

// CPU reads the child's user and system CPU time so far.
func (c *Child) CPU() (user, sys time.Duration, err error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(c.Ports.PID) + "/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseProcStat(raw)
}

// parseProcStat extracts utime and stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name in field 2 may itself contain
// spaces and parentheses, so fields are counted from its closing one.
func parseProcStat(raw []byte) (user, sys time.Duration, err error) {
	end := bytes.LastIndexByte(raw, ')')
	if end < 0 {
		return 0, 0, errors.New("load: malformed /proc stat line")
	}
	fields := strings.Fields(string(raw[end+1:]))
	if len(fields) < 13 {
		return 0, 0, errors.New("load: short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, errors.New("load: non-numeric CPU time in /proc stat line")
	}
	return time.Duration(ut) * clockTick, time.Duration(st) * clockTick, nil
}

// PeakRSS reads the child's resident-set high-water mark in bytes.
func (c *Child) PeakRSS() (int64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(c.Ports.PID) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("load: parsing VmHWM %q: %w", rest, err)
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("load: no VmHWM in /proc status")
}

// selfCPU is the harness process's own CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// getJSON fetches a control route into out.
func (c *Child) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Ports.Control+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.control.Do(req)
	if err != nil {
		return fmt.Errorf("load: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("load: %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Stats reads every counter of the child; gc makes it collect first.
func (c *Child) Stats(ctx context.Context, gc bool) (serve.Stats, error) {
	var s serve.Stats
	path := serve.StatsPath
	if gc {
		path += "?gc=1"
	}
	return s, c.getJSON(ctx, path, &s)
}

// Progress reads the child's drain counters.
func (c *Child) Progress(ctx context.Context) (serve.Progress, error) {
	var p serve.Progress
	return p, c.getJSON(ctx, serve.ProgressPath, &p)
}

// Verdicts reads the final tier's detection verdicts.
func (c *Child) Verdicts(ctx context.Context) ([]serve.Verdict, error) {
	var v []serve.Verdict
	return v, c.getJSON(ctx, serve.VerdictsPath, &v)
}

// Register enters a generated manifest in the child's TaskIndex.
func (c *Child) Register(ctx context.Context, manifest []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Ports.Control+serve.RegisterPath, bytes.NewReader(manifest))
	if err != nil {
		return err
	}
	resp, err := c.control.Do(req)
	if err != nil {
		return fmt.Errorf("load: registering the manifest: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("load: registering the manifest: HTTP %d: %s", resp.StatusCode, body)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

// WaitDrained polls until the forwarder has delivered every commit and the
// upstream holds as many measurements as the edge. It returns when it saw
// that and the largest backlog (commits not yet acknowledged) it saw on the
// way. every is the polling period.
func (c *Child) WaitDrained(ctx context.Context, every time.Duration) (at time.Time, peak uint64, err error) {
	for {
		p, err := c.Progress(ctx)
		if err != nil {
			return time.Time{}, peak, err
		}
		if p.Observed-p.Acked > peak {
			peak = p.Observed - p.Acked
		}
		if p.Acked == p.Observed && p.UpstreamLen == p.EdgeLen {
			return time.Now(), peak, nil
		}
		select {
		case <-ctx.Done():
			return time.Time{}, peak, fmt.Errorf("load: waiting for the forwarder to drain (acked %d of %d, upstream %d of %d): %w",
				p.Acked, p.Observed, p.UpstreamLen, p.EdgeLen, ctx.Err())
		case <-time.After(every):
		}
	}
}
