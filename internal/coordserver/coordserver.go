// Package coordserver implements Encore's coordination server (§5.3-§5.4):
// the component webmasters' pages reference from their one-line embed
// snippet. When a client requests /task.js the server identifies the
// client's browser family (from the User-Agent) and region (by geolocating
// the address), asks the scheduler for one or more measurement tasks suited
// to that client, registers the tasks so the collection server can attribute
// results, and returns the generated JavaScript.
//
// Open is the only code that knows how a coordinator is wired (scheduler,
// server, optional federation), and Serve and Close the only code that
// knows how it comes down.
package coordserver

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"encore/internal/api"
	"encore/internal/collectserver"
	"encore/internal/coordfed"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/pipeline"
	"encore/internal/results"
	"encore/internal/scheduler"
)

// defaultDwellSeconds is assumed when the client gives no hint about how
// long it will stay on the origin page.
const defaultDwellSeconds = 15

// Server is the coordination server. It implements http.Handler; Open
// builds one.
type Server struct {
	Scheduler *scheduler.Scheduler
	Tasks     *results.TaskIndex
	Geo       *geo.Registry
	// Snippet options tell generated tasks where to submit results.
	Snippet core.SnippetOptions
	// Now is overridable for tests and simulation. Set it before the server
	// starts handling requests: handlers read it without synchronization.
	Now func() time.Time
	// Obfuscate controls whether served task JavaScript is minified and
	// obfuscated per client, as the paper's coordination server does
	// (Appendix A, §8) to resist DPI-based blocking.
	Obfuscate bool
	// Federation is the replicated coordinator's gossip plane, built by Open
	// when Config.Federation is set: the router mounts POST /v2/gossip and
	// /v2/healthz reports the federation origin, per-peer gossip health, and
	// status "degraded" while a quorum of the coordinator set is
	// unreachable.
	Federation *coordfed.Federation

	served uint64

	// covMu guards covBuf, the reusable coverage snapshot buffer behind
	// /coverage.json: dashboards poll the endpoint continuously, and reusing
	// one buffer (entries and maps) keeps steady-state polling from
	// re-allocating the whole snapshot per request.
	covMu  sync.Mutex
	covBuf []scheduler.RegionCoverage

	// router dispatches HTTP requests; built lazily on the first request
	// from the configuration fields above (all of which must be set before
	// traffic starts, per their doc comments).
	routerOnce sync.Once
	router     *api.Router
}

// Config names what a coordinator is built from.
type Config struct {
	// Tasks is the compiled task set the scheduler assigns from (required).
	Tasks *pipeline.TaskSet
	// Scheduler configures the scheduler built over Tasks.
	Scheduler scheduler.Config
	// Index registers every assigned task for attribution (required); the
	// collector shares it in a single-process deployment.
	Index *results.TaskIndex
	// Geo geolocates requesting clients; nil leaves their region empty.
	Geo *geo.Registry
	// Snippet tells generated tasks where to submit results.
	Snippet core.SnippetOptions
	// Federation, when set, makes this a replicated coordinator gossiping
	// coverage with its peers; its Scheduler field is filled in by Open.
	Federation *coordfed.Config
}

// Open builds a coordinator: the scheduler over cfg.Tasks, the Server, and
// the federation when cfg names one. It starts nothing; Serve starts the
// gossip loops, and a caller that never calls Serve may step
// Federation.RunRound itself.
func Open(cfg Config) (*Server, error) {
	s := &Server{
		Scheduler: scheduler.New(cfg.Tasks, cfg.Scheduler),
		Tasks:     cfg.Index,
		Geo:       cfg.Geo,
		Snippet:   cfg.Snippet,
		Now:       time.Now,
	}
	if cfg.Federation != nil {
		fc := *cfg.Federation
		fc.Scheduler = s.Scheduler
		fed, err := coordfed.New(fc)
		if err != nil {
			return nil, fmt.Errorf("coordserver: building the federation: %w", err)
		}
		s.Federation = fed
	}
	return s, nil
}

// Serve starts the federation's gossip loops, answers HTTP on ln until ctx
// is cancelled or the process receives SIGINT or SIGTERM (api.Serve), and
// closes the federation on the way out, whichever way serving ended.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	if s.Federation != nil {
		s.Federation.Start()
	}
	defer s.Close()
	return api.Serve(ctx, ln, s)
}

// Close stops the federation's gossip loops and waits for them. The
// scheduler keeps its last merged view. Safe to call more than once.
func (s *Server) Close() {
	if s.Federation != nil {
		s.Federation.Close()
	}
}

// TasksServed reports how many /task.js responses have been generated.
func (s *Server) TasksServed() uint64 { return atomic.LoadUint64(&s.served) }

// TasksAssigned reports how many individual measurement tasks have been
// handed to clients; with several tasks per page view it exceeds TasksServed.
// It delegates to the scheduler's atomic assignment counter, so monitoring
// reads never contend with scheduling.
func (s *Server) TasksAssigned() uint64 { return uint64(s.Scheduler.TotalAssignments()) }

// ServeHTTP dispatches through the versioned API router: the v1 surface
// (/task.js, /frame.html, /healthz, /coverage.json, plus /v1/ aliases)
// answered exactly as the seed server did, and the v2 JSON surface
// (/v2/tasks, /v2/healthz). The router is built from the configuration
// fields on the first request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.routerOnce.Do(func() { s.router = s.buildRouter() })
	s.router.ServeHTTP(w, r)
}

// buildRouter mounts the v1 and v2 endpoints. The coordination server always
// answers cross-origin (the embed snippet loads task.js from arbitrary
// origin pages), so CORS is unconditionally on.
func (s *Server) buildRouter() *api.Router {
	rt := api.NewRouter()
	rt.EnableCORS()
	rt.HandleFunc(http.MethodGet, api.V1TaskJSPath, s.handleTaskJS)
	rt.HandleFunc(http.MethodGet, api.V1FramePath, s.handleFrame)
	rt.HandleFunc(http.MethodGet, api.V1HealthPath, s.handleHealth)
	rt.HandleFunc(http.MethodGet, api.V1CoveragePath, s.handleCoverage)
	rt.Alias("/v1"+api.V1TaskJSPath, api.V1TaskJSPath)
	rt.Alias("/v1"+api.V1FramePath, api.V1FramePath)
	rt.Alias("/v1"+api.V1HealthPath, api.V1HealthPath)
	rt.Alias("/v1"+api.V1CoveragePath, api.V1CoveragePath)
	rt.HandleFunc(http.MethodGet, api.V2TasksPath, s.handleTasksV2)
	rt.HandleFunc(http.MethodGet, api.V2HealthPath, s.handleHealthV2)
	if s.Federation != nil {
		rt.HandleFunc(http.MethodPost, api.V2GossipPath, s.Federation.Handler())
	}
	return rt
}

// handleHealth answers the v1 plain-text health check.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "ok: %d task responses served, %d tasks assigned\n", s.TasksServed(), s.TasksAssigned())
}

// handleHealthV2 answers GET /v2/healthz with structured health. A federated
// coordinator adds its origin and per-peer gossip state, and reports
// "degraded" while a quorum of the coordinator set is unreachable — it keeps
// assigning tasks from its last merged coverage view the whole time.
func (s *Server) handleHealthV2(w http.ResponseWriter, _ *http.Request) {
	resp := api.HealthResponse{
		Status:        api.StatusOK,
		TasksServed:   s.TasksServed(),
		TasksAssigned: s.TasksAssigned(),
	}
	if f := s.Federation; f != nil {
		resp.Origin = f.Origin()
		resp.Peers = f.PeerHealth(s.Now())
		if f.Degraded() {
			resp.Status = api.StatusDegraded
		}
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// handleTasksV2 answers GET /v2/tasks with the structured form of the same
// assignment /task.js renders as JavaScript: the scheduler picks tasks for
// the requesting client (browser family from the User-Agent, region by
// geolocation, dwell from the dwell-seconds parameter), the task index
// registers them for attribution, and the response carries one Task object
// per assignment. With ?script=1 each task also carries its rendered v1
// JavaScript, pinning down that the beacon script is one rendering of this
// response.
func (s *Server) handleTasksV2(w http.ResponseWriter, r *http.Request) {
	req := api.ParseTaskRequest(r)
	client := s.ClientFromRequest(r)
	if req.DwellSeconds > 0 {
		client.ExpectedDwellSeconds = req.DwellSeconds
	}
	tasks := s.AssignAndRegister(client, s.Now())
	resp := api.TaskResponse{
		Tasks:        make([]api.Task, 0, len(tasks)),
		CollectorURL: s.Snippet.CollectorURL,
	}
	for _, t := range tasks {
		out := api.Task{
			MeasurementID:  t.MeasurementID,
			Type:           t.Type.String(),
			TargetURL:      t.TargetURL,
			CachedImageURL: t.CachedImageURL,
			PatternKey:     t.PatternKey,
			TimeoutMillis:  t.TimeoutMillis,
			Control:        t.Control,
		}
		if req.IncludeScript {
			out.Script = s.renderTask(t)
		}
		resp.Tasks = append(resp.Tasks, out)
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// handleCoverage serves the scheduler's per-region coverage snapshot for
// monitoring dashboards: how many assignments each pattern has received from
// each region, plus the min/max balance the per-region least-covered index
// maintains. Snapshotting locks each region shard only long enough to copy
// its counters, so polling this endpoint never stalls assignment; the
// snapshot buffer is reused across requests (serialized by covMu) so
// steady-state polling does not re-allocate it.
func (s *Server) handleCoverage(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.covMu.Lock()
	defer s.covMu.Unlock()
	s.covBuf = s.Scheduler.CoverageSnapshotInto(s.covBuf)
	payload := struct {
		TasksServed   uint64                     `json:"tasksServed"`
		TasksAssigned uint64                     `json:"tasksAssigned"`
		Focus         string                     `json:"focus"`
		Regions       []scheduler.RegionCoverage `json:"regions"`
	}{
		TasksServed:   s.TasksServed(),
		TasksAssigned: s.TasksAssigned(),
		Focus:         s.Scheduler.FocusPattern(s.Now()),
		Regions:       s.covBuf,
	}
	if err := json.NewEncoder(w).Encode(payload); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// ClientFromRequest derives the scheduling view of a client from its HTTP
// request.
func (s *Server) ClientFromRequest(r *http.Request) scheduler.ClientInfo {
	info := scheduler.ClientInfo{
		Browser:              collectserver.ParseBrowserFamily(r.UserAgent()),
		ExpectedDwellSeconds: defaultDwellSeconds,
	}
	ip := api.ClientIP(r)
	if s.Geo != nil && ip != "" {
		if code, err := s.Geo.LookupString(ip); err == nil {
			info.Region = code
		}
	}
	return info
}

// AssignAndRegister asks the scheduler for tasks for the client and registers
// them in the task index. It is the programmatic entry point used by the
// in-process client simulator; the HTTP handlers delegate to it.
func (s *Server) AssignAndRegister(client scheduler.ClientInfo, now time.Time) []core.Task {
	tasks := s.Scheduler.Assign(client, now)
	for _, t := range tasks {
		s.Tasks.Register(t)
	}
	if len(tasks) > 0 {
		atomic.AddUint64(&s.served, 1)
	}
	return tasks
}

// handleTaskJS serves the measurement JavaScript for this client.
func (s *Server) handleTaskJS(w http.ResponseWriter, r *http.Request) {
	client := s.ClientFromRequest(r)
	tasks := s.AssignAndRegister(client, s.Now())
	w.Header().Set("Content-Type", "application/javascript")
	w.Header().Set("Cache-Control", "no-store")
	if len(tasks) == 0 {
		fmt.Fprintln(w, "// encore: no measurement tasks available")
		return
	}
	if !s.Obfuscate {
		fmt.Fprintln(w, "// encore measurement tasks")
	}
	for _, t := range tasks {
		fmt.Fprintln(w, s.renderTask(t))
	}
}

// renderTask generates (and, if configured, obfuscates) the JavaScript for
// one task.
func (s *Server) renderTask(t core.Task) string {
	js := core.GenerateTaskScript(t, s.Snippet)
	if s.Obfuscate {
		return core.ObfuscateScript(js, t.MeasurementID)
	}
	return js
}

// InlineTaskJS generates ready-to-inline task JavaScript for the client
// behind the request. Origin servers operating in webmaster-proxy mode (§8)
// call this so the measurement task travels inside the origin's own page and
// the client never contacts the coordination server directly.
func (s *Server) InlineTaskJS(r *http.Request) string {
	client := s.ClientFromRequest(r)
	tasks := s.AssignAndRegister(client, s.Now())
	if len(tasks) == 0 {
		return "// encore: no measurement tasks available\n"
	}
	var b strings.Builder
	for _, t := range tasks {
		b.WriteString(s.renderTask(t))
		b.WriteString("\n")
	}
	return b.String()
}

// handleFrame serves a minimal HTML document that loads /task.js, for
// webmasters who prefer the iframe embed.
func (s *Server) handleFrame(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html")
	fmt.Fprintf(w, "<!DOCTYPE html><html><head><title>encore</title></head><body>%s</body></html>\n",
		core.EmbedSnippet(s.Snippet))
}
