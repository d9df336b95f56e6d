// Package testbed implements the Web censorship testbed used to confirm the
// soundness of Encore's measurement tasks (§7.1): "a Web censorship testbed,
// which has DNS, firewall, and Web server configurations that emulate seven
// varieties of DNS, IP, and HTTP filtering". One subdomain is configured per
// filtering mechanism, plus a control subdomain that is never filtered and a
// deliberately nonexistent domain for DNS-blocking controls.
//
// The testbed has two halves: (1) content serving — each subdomain hosts a
// small pixel image, a style sheet that sets the probe rule, a nosniff
// script, and a small cacheable page, served either through the in-process
// network simulator or over real loopback HTTP; (2) filtering — a global
// censor policy that applies the subdomain's mechanism to every client, so a
// correct measurement task must report failure for filtered subdomains and
// success for the control.
package testbed

import (
	"fmt"
	"net/http"
	"strings"

	"encore/internal/api"
	"encore/internal/browser"
	"encore/internal/censor"
	"encore/internal/clientsim"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/netsim"
	"encore/internal/pipeline"
	"encore/internal/stats"
	"encore/internal/urlpattern"
)

// Resources served on every testbed subdomain.
const (
	pixelPath  = "/pixel.png"
	stylePath  = "/probe.css"
	scriptPath = "/lib.js"
	pagePath   = "/page.html"
	// pixelSize keeps the image within the strict 1 KB image-task bound.
	pixelSize  = 512
	styleSize  = 256
	scriptSize = 1024
	pageSize   = 4096
)

// Testbed is one deployment of the censorship testbed under a base domain
// such as "testbed.encore-test.org".
type Testbed struct {
	// BaseDomain is the parent domain; mechanism subdomains hang off it.
	BaseDomain string
}

// New creates a testbed rooted at the given base domain.
func New(baseDomain string) *Testbed {
	return &Testbed{BaseDomain: urlpattern.NormalizeHost(baseDomain)}
}

// ControlDomain returns the never-filtered control subdomain.
func (tb *Testbed) ControlDomain() string {
	return "control." + tb.BaseDomain
}

// MechanismDomain returns the subdomain filtered with the given mechanism.
func (tb *Testbed) MechanismDomain(m censor.Mechanism) string {
	return m.String() + "." + tb.BaseDomain
}

// MissingDomain returns a domain that does not exist anywhere, used as a
// negative control for DNS behaviour.
func (tb *Testbed) MissingDomain() string {
	return "missing." + tb.BaseDomain + ".invalid"
}

// Domains returns every testbed subdomain (control plus one per mechanism).
func (tb *Testbed) Domains() []string {
	out := []string{tb.ControlDomain()}
	for _, m := range censor.Mechanisms() {
		out = append(out, tb.MechanismDomain(m))
	}
	return out
}

// InstallPolicies adds the testbed's filtering behaviour to the censor
// engine as global rules: every client, regardless of region, observes the
// configured mechanism when fetching from a mechanism subdomain. The control
// subdomain is never filtered.
func (tb *Testbed) InstallPolicies(engine *censor.Engine) {
	policy, ok := engine.Policy(censor.GlobalRegion)
	if !ok {
		policy = &censor.Policy{Region: censor.GlobalRegion}
	}
	for _, m := range censor.Mechanisms() {
		policy.AddDomain(tb.MechanismDomain(m), m, "testbed "+m.String())
	}
	engine.SetPolicy(policy)
}

// RegisterHosts registers content serving for every testbed subdomain with
// the network simulator, so simulated clients can fetch testbed resources.
func (tb *Testbed) RegisterHosts(n *netsim.Network) {
	for _, domain := range tb.Domains() {
		d := domain
		n.RegisterHost(d, netsim.HostFunc(func(url string) (int, string, int, bool) {
			return tb.serve(url)
		}))
	}
}

// serve resolves a URL's path to the testbed's static resources.
func (tb *Testbed) serve(url string) (int, string, int, bool) {
	switch {
	case strings.HasSuffix(url, pixelPath):
		return 200, "image/png", pixelSize, true
	case strings.HasSuffix(url, stylePath):
		return 200, "text/css", styleSize, true
	case strings.HasSuffix(url, scriptPath):
		return 200, "application/javascript", scriptSize, true
	case strings.HasSuffix(url, pagePath):
		return 200, "text/html", pageSize, true
	default:
		return 404, "text/html", 256, false
	}
}

// Handler returns a real net/http handler serving the testbed's content for
// loopback deployments (cmd/encore-testbed). Filtering is not emulated at
// the HTTP layer — the real deployment relies on DNS/firewall configuration,
// and the simulation applies it through the censor engine — so the handler
// simply serves content for every subdomain.
func (tb *Testbed) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(pixelPath, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "image/png")
		w.Header().Set("Cache-Control", "public, max-age=86400")
		// A minimal valid PNG header followed by padding keeps the body
		// both image-like and the declared size.
		body := make([]byte, pixelSize)
		copy(body, []byte{0x89, 'P', 'N', 'G', 0x0d, 0x0a, 0x1a, 0x0a})
		_, _ = w.Write(body)
	})
	mux.HandleFunc(stylePath, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/css")
		w.Header().Set("Cache-Control", "public, max-age=86400")
		fmt.Fprint(w, "p { color: rgb(0, 0, 255); }\n")
	})
	mux.HandleFunc(scriptPath, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/javascript")
		w.Header().Set("X-Content-Type-Options", "nosniff")
		w.Header().Set("Cache-Control", "public, max-age=86400")
		fmt.Fprint(w, "(function(){var encoreTestbed=true;})();\n")
	})
	mux.HandleFunc(pagePath, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprintf(w, "<!DOCTYPE html><html><body><img src=%q/></body></html>\n", pixelPath)
	})
	mux.HandleFunc(api.V1HealthPath, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// TargetDef names one testbed target: the URL to measure, the mechanism it
// exercises (MechanismNone for controls), and the task type that should test
// it.
type TargetDef struct {
	URL       string
	Mechanism censor.Mechanism
	TaskType  core.TaskType
}

// Targets enumerates the soundness-experiment targets: for every mechanism
// subdomain and the control subdomain, one target per applicable task type
// (images and scripts test the pixel, style-sheet tasks test the probe
// sheet). The deliberately missing domain is included as an extra
// DNS-behaviour control.
func (tb *Testbed) Targets() []TargetDef {
	var out []TargetDef
	domains := []struct {
		domain    string
		mechanism censor.Mechanism
	}{{tb.ControlDomain(), censor.MechanismNone}}
	for _, m := range censor.Mechanisms() {
		domains = append(domains, struct {
			domain    string
			mechanism censor.Mechanism
		}{tb.MechanismDomain(m), m})
	}
	for _, d := range domains {
		base := "http://" + d.domain
		out = append(out,
			TargetDef{URL: base + pixelPath, Mechanism: d.mechanism, TaskType: core.TaskImage},
			TargetDef{URL: base + stylePath, Mechanism: d.mechanism, TaskType: core.TaskStylesheet},
			TargetDef{URL: base + pixelPath, Mechanism: d.mechanism, TaskType: core.TaskScript},
		)
	}
	// The missing domain only makes sense for explicit-feedback tasks.
	out = append(out, TargetDef{URL: "http://" + tb.MissingDomain() + pixelPath, Mechanism: censor.MechanismDNSNXDOMAIN, TaskType: core.TaskImage})
	return out
}

// TaskSet converts the testbed targets into a schedulable control task set.
// Every task is marked as a control so it never feeds filtering detection.
func (tb *Testbed) TaskSet() *pipeline.TaskSet {
	ts := pipeline.NewTaskSet()
	for _, target := range tb.Targets() {
		domain := urlpattern.DomainOf(target.URL)
		ts.Add(pipeline.Candidate{
			PatternKey: "testbed:" + domain + ":" + target.TaskType.String(),
			Type:       target.TaskType,
			TargetURL:  target.URL,
			Strict:     true,
		})
	}
	return ts
}

// ExpectedSuccess reports whether the target's resource is genuinely
// reachable: only the control subdomain's resources are.
func (tb *Testbed) ExpectedSuccess(target TargetDef) bool {
	return target.Mechanism == censor.MechanismNone
}

// ExpectedTaskSuccess reports what a *correctly implemented* measurement task
// of the target's type should report, which differs from ExpectedSuccess in
// one documented blind spot: the script mechanism treats any HTTP 200 as
// success (§4.3.2), so censorship that substitutes a block page over a
// successful HTTP exchange (DNS redirection to a block server, in-path HTTP
// block pages) is invisible to it. Image and style-sheet tasks detect those
// because the substituted content fails to render or to apply.
func (tb *Testbed) ExpectedTaskSuccess(target TargetDef) bool {
	if tb.ExpectedSuccess(target) {
		return true
	}
	if target.TaskType == core.TaskScript &&
		(target.Mechanism == censor.MechanismDNSRedirect || target.Mechanism == censor.MechanismHTTPBlockPage) {
		return true
	}
	return false
}

// IsTestbedPattern reports whether a measurement pattern key belongs to this
// testbed (used to separate soundness measurements from real detections).
func (tb *Testbed) IsTestbedPattern(patternKey string) bool {
	return strings.HasPrefix(patternKey, "testbed:")
}

// MechanismForPattern extracts the mechanism a testbed pattern key exercises,
// or MechanismNone for controls and non-testbed keys.
func (tb *Testbed) MechanismForPattern(patternKey string) censor.Mechanism {
	if !tb.IsTestbedPattern(patternKey) {
		return censor.MechanismNone
	}
	parts := strings.Split(patternKey, ":")
	if len(parts) < 2 {
		return censor.MechanismNone
	}
	domain := parts[1]
	for _, m := range censor.Mechanisms() {
		if domain == tb.MechanismDomain(m) {
			return m
		}
	}
	return censor.MechanismNone
}

// Soundness is the outcome of the §7.1 validation experiment.
type Soundness struct {
	// Measurements is how many testbed tasks ran; Correct is how many of
	// their verdicts matched ExpectedTaskSuccess.
	Measurements, Correct int
	// Cells breaks Measurements and Correct down by the mechanism a target
	// exercises (MechanismNone for the control) and the task type measuring
	// it; a pair no target has stays zero.
	Cells [censor.MechanismThrottle + 1][core.TaskScript + 1]SoundnessCell
	// ControlImages counts image tasks against the unfiltered control and
	// ControlImageFailures the ones that failed anyway: image false
	// positives.
	ControlImages, ControlImageFailures int
}

// SoundnessCell is one mechanism × task type cell of Soundness.
type SoundnessCell struct{ Correct, Total int }

// PctCorrect is the percentage of verdicts that matched ground truth.
func (s Soundness) PctCorrect() float64 {
	return 100 * float64(s.Correct) / float64(s.Measurements)
}

// PctImageFalsePositives is the percentage of control image tasks that
// failed.
func (s Soundness) PctImageFalsePositives() float64 {
	return 100 * float64(s.ControlImageFailures) / float64(s.ControlImages)
}

// Validate runs the §7.1 soundness experiment: it applies the testbed's
// filtering to a fresh deployment built at seed, and has clients browsers,
// spread round-robin over regions with families sampled from seed, measure
// every testbed target. Script tasks go to Chrome only, as the scheduler
// would assign them.
func (tb *Testbed) Validate(seed uint64, clients int, regions []geo.CountryCode) Soundness {
	eng := censor.NewEngine()
	tb.InstallPolicies(eng)
	stack := clientsim.BuildStack(clientsim.StackConfig{Seed: seed, Censor: eng})
	tb.RegisterHosts(stack.Net)
	rng := stats.NewRNG(seed)

	var s Soundness
	for c := 0; c < clients; c++ {
		client, err := stack.Net.NewClient(regions[c%len(regions)])
		if err != nil {
			continue
		}
		br := browser.New(browser.SampleFamily(rng), client, stack.Net, rng.Uint64())
		for _, target := range tb.Targets() {
			if target.TaskType == core.TaskScript && br.Family != core.BrowserChrome {
				continue
			}
			task := core.Task{MeasurementID: fmt.Sprintf("tb-%d-%d", c, s.Measurements), Type: target.TaskType,
				TargetURL: target.URL, PatternKey: "testbed"}
			res := br.ExecuteTask(task)
			cell := &s.Cells[target.Mechanism][target.TaskType]
			s.Measurements++
			cell.Total++
			if res.Success == tb.ExpectedTaskSuccess(target) {
				s.Correct++
				cell.Correct++
			}
			if target.Mechanism == censor.MechanismNone && target.TaskType == core.TaskImage {
				s.ControlImages++
				if !res.Success {
					s.ControlImageFailures++
				}
			}
		}
	}
	return s
}
