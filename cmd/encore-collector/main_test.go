package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"encore/internal/api"
)

// collector is one running encore-collector process.
type collector struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has exited, with err set
	err  error
}

// start runs the binary with args, its first being -wal-dir DIR, and waits
// for its listening line. Its log goes to the test log under DIR's name.
func start(t *testing.T, bin string, args ...string) *collector {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := &collector{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			t.Logf("%s: %s", filepath.Base(args[1]), sc.Text())
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr <- a
			}
		}
		c.err = cmd.Wait()
		close(c.done)
	}()
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		<-c.done
	})
	select {
	case a := <-addr:
		c.url = "http://" + a
	case <-c.done:
		t.Fatalf("collector exited at start-up: %v", c.err)
	case <-time.After(30 * time.Second):
		t.Fatal("collector never reported its address")
	}
	return c
}

// stop sends SIGTERM and requires a clean exit.
func (c *collector) stop(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.done:
		if c.err != nil {
			t.Fatalf("collector exit: %v", c.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("collector did not exit after SIGTERM")
	}
}

func (c *collector) beacon(t *testing.T, id string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, c.url+"/submit?cmh-id="+id+"&cmh-result=success", nil)
	req.Header.Set("X-Forwarded-For", "198.51.100."+strings.TrimPrefix(id, "id-"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("beacon %s: HTTP %d", id, resp.StatusCode)
	}
}

func (c *collector) count(t *testing.T) int {
	t.Helper()
	resp, err := http.Get(c.url + api.V2HealthPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h api.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.Measurements
}

// TestEdgeRestartForwardsEverything runs the shipped binary as an edge and an
// upstream: beacons before and after the edge's SIGTERM and restart on the
// same log all reach both, each distinct ID once. Without -wal-dir the
// binary refuses to start.
func TestEdgeRestartForwardsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "encore-collector")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	if out, err := exec.Command(bin, "-accept-any").CombinedOutput(); err == nil || !strings.Contains(string(out), "-wal-dir") {
		t.Fatalf("without -wal-dir: err %v, output %q; want a start-up error naming the flag", err, out)
	}
	const token = "test-token"
	up := start(t, bin, "-wal-dir", filepath.Join(dir, "upstream"), "-allow-attributed", "-attributed-token", token)
	edgeArgs := []string{"-wal-dir", filepath.Join(dir, "edge"), "-accept-any",
		"-forward-to", up.url, "-forward-token", token, "-forward-flush", "50ms"}

	edge := start(t, bin, edgeArgs...)
	for i := 0; i < 30; i++ {
		edge.beacon(t, fmt.Sprintf("id-%d", i))
	}
	edge.stop(t)
	edge = start(t, bin, edgeArgs...)
	for i := 20; i < 50; i++ { // ten repeats of the first life's IDs
		edge.beacon(t, fmt.Sprintf("id-%d", i))
	}

	const distinct = 50
	deadline := time.Now().Add(30 * time.Second)
	for edge.count(t) != distinct || up.count(t) != distinct {
		if time.Now().After(deadline) {
			t.Fatalf("edge holds %d, upstream %d; want %d each", edge.count(t), up.count(t), distinct)
		}
		time.Sleep(20 * time.Millisecond)
	}
	edge.stop(t)
	up.stop(t)
}
