package testbed

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"encore/internal/browser"
	"encore/internal/censor"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/netsim"
	"encore/internal/webgen"
)

func testEnvironment(t *testing.T) (*Testbed, *netsim.Network) {
	t.Helper()
	tb := New("testbed.encore-test.org")
	eng := censor.NewEngine()
	tb.InstallPolicies(eng)
	web := webgen.Generate(webgen.Config{Seed: 2, TargetDomains: map[string]webgen.Category{}, GenericDomains: 2, CDNDomains: 1, PagesPerDomain: 5})
	n := netsim.New(netsim.Config{Web: web, Censor: eng, Geo: geo.NewRegistry(2), Seed: 9})
	tb.RegisterHosts(n)
	return tb, n
}

func TestDomainsCoverAllMechanisms(t *testing.T) {
	tb := New("Testbed.Encore-Test.org")
	domains := tb.Domains()
	if len(domains) != 1+len(censor.Mechanisms()) {
		t.Fatalf("testbed has %d domains, want control + %d mechanisms", len(domains), len(censor.Mechanisms()))
	}
	if tb.ControlDomain() != "control.testbed.encore-test.org" {
		t.Fatalf("control domain=%q", tb.ControlDomain())
	}
	if !strings.Contains(tb.MissingDomain(), ".invalid") {
		t.Fatalf("missing domain should be unresolvable: %q", tb.MissingDomain())
	}
}

func TestInstallPoliciesFiltersMechanismSubdomains(t *testing.T) {
	tb, n := testEnvironment(t)
	client, err := n.NewClient("US")
	if err != nil {
		t.Fatal(err)
	}
	client.Unreliability = 0
	// Control resources are reachable.
	res := n.Fetch(client, "http://"+tb.ControlDomain()+"/pixel.png", false)
	if !res.Succeeded() {
		t.Fatalf("control fetch failed: %s", netsim.DescribeResult(res))
	}
	// Every mechanism subdomain is filtered, from every region.
	for _, m := range censor.Mechanisms() {
		res := n.Fetch(client, "http://"+tb.MechanismDomain(m)+"/pixel.png", false)
		if res.Succeeded() {
			t.Fatalf("%s subdomain should be filtered", m)
		}
		if !res.GroundTruthFiltered || res.GroundTruthMechanism != m {
			t.Fatalf("ground truth wrong for %s: %s", m, netsim.DescribeResult(res))
		}
	}
}

func TestTasksSoundAgainstTestbed(t *testing.T) {
	// The core soundness claim of §7.1: explicit-feedback task types report
	// success for control resources and failure for filtered ones.
	tb, n := testEnvironment(t)
	client, err := n.NewClient("DE")
	if err != nil {
		t.Fatal(err)
	}
	client.Unreliability = 0
	b := browser.New(core.BrowserChrome, client, n, 5)
	for _, target := range tb.Targets() {
		task := core.Task{
			MeasurementID: "m-" + target.TaskType.String() + "-" + target.URL,
			Type:          target.TaskType,
			TargetURL:     target.URL,
			PatternKey:    "testbed:x",
		}
		res := b.ExecuteTask(task)
		want := tb.ExpectedTaskSuccess(target)
		if res.Success != want {
			t.Errorf("task %v against %s (mechanism %s): success=%v, want %v",
				target.TaskType, target.URL, target.Mechanism, res.Success, want)
		}
	}
}

func TestScriptTaskBlindSpotDocumented(t *testing.T) {
	// The script mechanism cannot see block-page substitution; the image
	// mechanism can. ExpectedTaskSuccess encodes exactly that.
	tb := New("testbed.encore-test.org")
	blind := TargetDef{URL: "http://x/pixel.png", Mechanism: censor.MechanismHTTPBlockPage, TaskType: core.TaskScript}
	if !tb.ExpectedTaskSuccess(blind) {
		t.Fatal("script task should (incorrectly but by design) report success for block pages")
	}
	visible := TargetDef{URL: "http://x/pixel.png", Mechanism: censor.MechanismHTTPBlockPage, TaskType: core.TaskImage}
	if tb.ExpectedTaskSuccess(visible) {
		t.Fatal("image task should detect block pages")
	}
	if tb.ExpectedSuccess(blind) {
		t.Fatal("ExpectedSuccess must reflect true reachability")
	}
}

func TestTaskSetMarksControls(t *testing.T) {
	tb := New("testbed.encore-test.org")
	ts := tb.TaskSet()
	if ts.Len() == 0 {
		t.Fatal("empty task set")
	}
	for _, c := range ts.All() {
		if !tb.IsTestbedPattern(c.PatternKey) {
			t.Fatalf("candidate pattern %q not marked as testbed", c.PatternKey)
		}
		task := c.Task("m-1", true)
		if !task.Control {
			t.Fatal("testbed tasks must be controls")
		}
	}
	// There should be targets for every mechanism and for the control.
	keys := map[string]bool{}
	for _, c := range ts.All() {
		keys[c.PatternKey] = true
	}
	if len(keys) < len(censor.Mechanisms())*3 {
		t.Fatalf("only %d distinct testbed patterns", len(keys))
	}
}

func TestMechanismForPattern(t *testing.T) {
	tb := New("testbed.encore-test.org")
	key := "testbed:" + tb.MechanismDomain(censor.MechanismTCPReset) + ":image"
	if got := tb.MechanismForPattern(key); got != censor.MechanismTCPReset {
		t.Fatalf("MechanismForPattern=%v", got)
	}
	ctl := "testbed:" + tb.ControlDomain() + ":image"
	if got := tb.MechanismForPattern(ctl); got != censor.MechanismNone {
		t.Fatalf("control pattern mapped to %v", got)
	}
	if got := tb.MechanismForPattern("domain:youtube.com"); got != censor.MechanismNone {
		t.Fatalf("non-testbed pattern mapped to %v", got)
	}
	if tb.IsTestbedPattern("domain:youtube.com") {
		t.Fatal("non-testbed pattern misclassified")
	}
}

func TestHTTPHandlerServesContent(t *testing.T) {
	tb := New("testbed.encore-test.org")
	srv := httptest.NewServer(tb.Handler())
	defer srv.Close()

	cases := []struct {
		path     string
		wantType string
		contains string
	}{
		{"/pixel.png", "image/png", ""},
		{"/probe.css", "text/css", "rgb(0, 0, 255)"},
		{"/lib.js", "application/javascript", "encoreTestbed"},
		{"/page.html", "text/html", "img"},
		{"/healthz", "", "ok"},
	}
	for _, tc := range cases {
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status=%d", tc.path, resp.StatusCode)
		}
		if tc.wantType != "" && !strings.Contains(resp.Header.Get("Content-Type"), tc.wantType) {
			t.Fatalf("%s content type=%q", tc.path, resp.Header.Get("Content-Type"))
		}
		if tc.contains != "" && !strings.Contains(string(body), tc.contains) {
			t.Fatalf("%s body missing %q", tc.path, tc.contains)
		}
	}
	// The script endpoint must send nosniff so it is a valid script-task
	// target.
	resp, err := http.Get(srv.URL + "/lib.js")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Content-Type-Options") != "nosniff" {
		t.Fatal("script endpoint missing nosniff header")
	}
}

func TestServe404(t *testing.T) {
	tb := New("testbed.encore-test.org")
	status, _, _, ok := tb.serve("http://control.testbed.encore-test.org/unknown.bin")
	if ok || status != 404 {
		t.Fatalf("unknown path: status=%d ok=%v", status, ok)
	}
}

// TestValidateCells: the per-mechanism × task-type cells partition the
// experiment's totals, and the control image cell is the false-positive
// denominator.
func TestValidateCells(t *testing.T) {
	s := New("testbed.encore-test.org").Validate(3, 16, []geo.CountryCode{"US", "IN"})
	measurements, correct := 0, 0
	for _, row := range s.Cells {
		for _, c := range row {
			if c.Correct > c.Total {
				t.Fatalf("cell %+v has more correct verdicts than measurements", c)
			}
			measurements += c.Total
			correct += c.Correct
		}
	}
	if measurements == 0 || measurements != s.Measurements || correct != s.Correct {
		t.Fatalf("cells sum to %d/%d, totals %d/%d", correct, measurements, s.Correct, s.Measurements)
	}
	if got := s.Cells[censor.MechanismNone][core.TaskImage].Total; got != s.ControlImages {
		t.Fatalf("control image cell holds %d, ControlImages %d", got, s.ControlImages)
	}
}
