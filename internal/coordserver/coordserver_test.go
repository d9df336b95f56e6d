package coordserver

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/pipeline"
	"encore/internal/results"
	"encore/internal/scheduler"
)

func testCoordinator(t *testing.T) (*Server, *results.TaskIndex, *geo.Registry) {
	t.Helper()
	ts := pipeline.NewTaskSet()
	for _, d := range []string{"youtube.com", "twitter.com"} {
		ts.Add(pipeline.Candidate{
			PatternKey: "domain:" + d,
			Type:       core.TaskImage,
			TargetURL:  "http://" + d + "/favicon.ico",
			Strict:     true,
		})
		ts.Add(pipeline.Candidate{
			PatternKey: "domain:" + d,
			Type:       core.TaskScript,
			TargetURL:  "http://" + d + "/favicon.ico",
			Strict:     true,
		})
	}
	index := results.NewTaskIndex()
	g := geo.NewRegistry(2)
	s := mustOpen(t, Config{Tasks: ts, Scheduler: scheduler.DefaultConfig(), Index: index, Geo: g,
		Snippet: core.SnippetOptions{
			CoordinatorURL: "//coordinator.encore-test.org",
			CollectorURL:   "//collector.encore-test.org",
		}})
	s.Now = func() time.Time { return time.Date(2014, 9, 1, 0, 0, 0, 0, time.UTC) }
	return s, index, g
}

// mustOpen opens a coordinator and closes it when the test ends.
func mustOpen(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// emptyConfig is a coordinator with nothing to assign.
func emptyConfig() Config {
	return Config{Tasks: pipeline.NewTaskSet(), Scheduler: scheduler.DefaultConfig(), Index: results.NewTaskIndex(),
		Geo: geo.NewRegistry(1), Snippet: core.SnippetOptions{CoordinatorURL: "//c", CollectorURL: "//d"}}
}

func TestServeTaskJS(t *testing.T) {
	s, index, g := testCoordinator(t)
	srv := httptest.NewServer(s)
	defer srv.Close()

	ip, _ := g.RandomIP("CN")
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/task.js", nil)
	req.Header.Set("User-Agent", "Mozilla/5.0 Chrome/39.0 Safari/537.36")
	req.Header.Set("X-Forwarded-For", ip.String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	js := string(body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "javascript") {
		t.Fatalf("content type=%q", ct)
	}
	if !strings.Contains(js, "submitToCollector") || !strings.Contains(js, "collector.encore-test.org") {
		t.Fatalf("served JS does not look like a measurement task:\n%s", js)
	}
	if index.Len() == 0 {
		t.Fatal("served tasks were not registered in the task index")
	}
	if s.TasksServed() == 0 {
		t.Fatal("TasksServed not incremented")
	}
	// Verify the registered task is retrievable and valid.
	found := false
	for _, line := range strings.Split(js, "\n") {
		if strings.Contains(line, "M.measurementId = ") {
			id := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(line), `M.measurementId = "`), `";`)
			task, ok := index.Lookup(id)
			if !ok {
				t.Fatalf("measurement ID %q in JS but not registered", id)
			}
			if err := task.Validate(); err != nil {
				t.Fatalf("registered task invalid: %v", err)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no measurement ID found in served JS")
	}
}

func TestServeFrameAndHealthz(t *testing.T) {
	s, _, _ := testCoordinator(t)
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/frame.html")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "task.js") {
		t.Fatalf("frame does not reference task.js:\n%s", body)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status=%d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status=%d", resp.StatusCode)
	}
}

func TestClientFromRequest(t *testing.T) {
	s, _, g := testCoordinator(t)
	ip, _ := g.RandomIP("BR")
	req := httptest.NewRequest(http.MethodGet, "http://coordinator.example.org/task.js", nil)
	req.Header.Set("User-Agent", "Mozilla/5.0 Firefox/35.0")
	req.RemoteAddr = ip.String() + ":51544"
	info := s.ClientFromRequest(req)
	if info.Region != "BR" || info.Browser != core.BrowserFirefox {
		t.Fatalf("client info wrong: %+v", info)
	}
	if info.ExpectedDwellSeconds <= 0 {
		t.Fatal("dwell default missing")
	}
}

func TestAssignAndRegisterDirect(t *testing.T) {
	s, index, _ := testCoordinator(t)
	tasks := s.AssignAndRegister(scheduler.ClientInfo{Region: "PK", Browser: core.BrowserFirefox, ExpectedDwellSeconds: 5}, time.Unix(0, 0))
	if len(tasks) == 0 {
		t.Fatal("no tasks assigned")
	}
	for _, task := range tasks {
		if task.Type == core.TaskScript {
			t.Fatal("Firefox assigned a script task")
		}
		if _, ok := index.Lookup(task.MeasurementID); !ok {
			t.Fatal("assigned task not registered")
		}
	}
}

func TestObfuscatedTaskJS(t *testing.T) {
	s, index, g := testCoordinator(t)
	s.Obfuscate = true
	srv := httptest.NewServer(s)
	defer srv.Close()
	ip, _ := g.RandomIP("CN")
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/task.js", nil)
	req.Header.Set("User-Agent", "Mozilla/5.0 Chrome/39.0 Safari/537.36")
	req.Header.Set("X-Forwarded-For", ip.String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	js := string(body)
	if strings.Contains(js, "var M = Object()") || strings.Contains(js, "// encore") {
		t.Fatalf("obfuscated response still carries the plain signature:\n%s", js)
	}
	// The protocol still works: the collector endpoint and a registered
	// measurement ID are present.
	if !strings.Contains(js, "collector.encore-test.org") || !strings.Contains(js, "cmh-result") {
		t.Fatal("obfuscated task lost the submission protocol")
	}
	if index.Len() == 0 {
		t.Fatal("no tasks registered")
	}
}

func TestInlineTaskJS(t *testing.T) {
	s, index, g := testCoordinator(t)
	ip, _ := g.RandomIP("IR")
	req := httptest.NewRequest(http.MethodGet, "http://origin.example.org/", nil)
	req.Header.Set("User-Agent", "Mozilla/5.0 Chrome/39.0 Safari/537.36")
	req.RemoteAddr = ip.String() + ":40000"
	js := s.InlineTaskJS(req)
	if !strings.Contains(js, "submitToCollector") {
		t.Fatalf("inline JS does not look like a task:\n%s", js)
	}
	if index.Len() == 0 {
		t.Fatal("inline tasks were not registered")
	}
	// Empty scheduler yields a harmless comment.
	empty := mustOpen(t, emptyConfig())
	if js := empty.InlineTaskJS(req); !strings.Contains(js, "no measurement tasks") {
		t.Fatalf("empty inline JS=%q", js)
	}
}

func TestTaskJSWithEmptyScheduler(t *testing.T) {
	s := mustOpen(t, emptyConfig())
	srv := httptest.NewServer(s)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/task.js")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "no measurement tasks") {
		t.Fatalf("empty scheduler should serve a harmless comment, got %d %q", resp.StatusCode, body)
	}
}

// TestCoverageEndpoint drives a few assignments and checks /coverage.json
// reports them per region with the focus pattern and counters.
func TestCoverageEndpoint(t *testing.T) {
	s, _, g := testCoordinator(t)
	srv := httptest.NewServer(s)
	defer srv.Close()

	ip, _ := g.RandomIP("PK")
	for i := 0; i < 5; i++ {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/task.js", nil)
		req.Header.Set("User-Agent", "Mozilla/5.0 Chrome/39.0 Safari/537.36")
		req.Header.Set("X-Forwarded-For", ip.String())
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(srv.URL + "/coverage.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type=%q", ct)
	}
	var payload struct {
		TasksServed   uint64 `json:"tasksServed"`
		TasksAssigned uint64 `json:"tasksAssigned"`
		Focus         string `json:"focus"`
		Regions       []struct {
			Region   string         `json:"region"`
			Assigned map[string]int `json:"assigned"`
			Min      int            `json:"min"`
			Max      int            `json:"max"`
		} `json:"regions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.TasksServed != 5 {
		t.Fatalf("tasksServed=%d, want 5", payload.TasksServed)
	}
	if payload.TasksAssigned == 0 || payload.Focus == "" {
		t.Fatalf("missing assigned/focus: %+v", payload)
	}
	if len(payload.Regions) != 1 || payload.Regions[0].Region != "PK" {
		t.Fatalf("regions=%+v, want exactly PK", payload.Regions)
	}
	sum := 0
	for _, n := range payload.Regions[0].Assigned {
		sum += n
	}
	if sum != int(payload.TasksAssigned) {
		t.Fatalf("region counts sum to %d, tasksAssigned=%d", sum, payload.TasksAssigned)
	}
	if payload.Regions[0].Max < payload.Regions[0].Min {
		t.Fatalf("max < min in %+v", payload.Regions[0])
	}
}
