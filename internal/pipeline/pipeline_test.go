package pipeline

import (
	"testing"
	"time"

	"encore/internal/browser"
	"encore/internal/censor"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/netsim"
	"encore/internal/targets"
	"encore/internal/urlpattern"
	"encore/internal/webgen"
)

func testPipeline(t *testing.T) (*Pipeline, *webgen.Web) {
	t.Helper()
	web := webgen.Generate(webgen.Config{
		Seed:           5,
		TargetDomains:  webgen.HighValueTargets(),
		GenericDomains: 12,
		CDNDomains:     2,
		PagesPerDomain: 12,
	})
	net := netsim.New(netsim.Config{Web: web, Censor: censor.NewEngine(), Geo: geo.NewRegistry(5), Seed: 5})
	client, err := net.NewClient("US") // the fetcher sits on an unfiltered academic network
	if err != nil {
		t.Fatal(err)
	}
	client.Unreliability = 0
	fetcher := browser.New(core.BrowserChrome, client, net, 77)
	return New(web, fetcher), web
}

func TestExpandPatternDomain(t *testing.T) {
	p, _ := testPipeline(t)
	exp := p.ExpandPattern(urlpattern.MustParse("youtube.com"))
	if len(exp.URLs) == 0 {
		t.Fatal("domain pattern expanded to no URLs")
	}
	if len(exp.URLs) > maxURLsPerPattern {
		t.Fatalf("expansion exceeded the %d-URL cap", maxURLsPerPattern)
	}
	for _, u := range exp.URLs {
		if !exp.Pattern.Matches(u) {
			t.Fatalf("expanded URL %q does not match its pattern", u)
		}
	}
}

func TestExpandPatternTrivial(t *testing.T) {
	p, web := testPipeline(t)
	site, _ := web.Site("facebook.com")
	exact := urlpattern.MustParse(site.Pages[1])
	exp := p.ExpandPattern(exact)
	if len(exp.URLs) != 1 || exp.URLs[0] != exact.URL() {
		t.Fatalf("trivial pattern should expand to itself, got %v", exp.URLs)
	}
}

func TestFetchTargetProducesHAR(t *testing.T) {
	p, web := testPipeline(t)
	site, _ := web.Site("bbc.co.uk")
	log, err := p.FetchTarget(site.Pages[0], time.Date(2014, 2, 26, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Entries) == 0 {
		t.Fatal("HAR has no entries")
	}
	if _, err := p.FetchTarget("http://offline-site.invalid/", time.Now()); err == nil {
		t.Fatal("offline target should fail to fetch")
	}
}

func TestGenerateFromHARRespectsRequirements(t *testing.T) {
	p, web := testPipeline(t)
	pat := urlpattern.MustParse("facebook.com")
	site, _ := web.Site("facebook.com")
	var candidates []Candidate
	for _, pu := range site.Pages[:5] {
		log, err := p.FetchTarget(pu, time.Now())
		if err != nil {
			continue
		}
		candidates = append(candidates, p.GenerateFromHAR(pat, log)...)
	}
	if len(candidates) == 0 {
		t.Fatal("no candidates generated for facebook.com")
	}
	req := core.DefaultRequirements()
	for _, c := range candidates {
		if c.PatternKey != pat.Key() {
			t.Fatalf("candidate attributed to wrong pattern: %+v", c)
		}
		// Candidates must target the pattern's own domain.
		if urlpattern.DomainOf(c.TargetURL) != "facebook.com" {
			t.Fatalf("candidate targets foreign domain: %s", c.TargetURL)
		}
		switch c.Type {
		case core.TaskImage:
			r, ok := web.LookupResource(c.TargetURL)
			if !ok || r.SizeBytes > req.RelaxedImageBytes {
				t.Fatalf("image candidate violates size bound: %+v", c)
			}
		case core.TaskIFrame:
			if c.CachedImageURL == "" {
				t.Fatalf("iframe candidate missing cached image: %+v", c)
			}
			page, ok := web.LookupPage(c.TargetURL)
			if !ok {
				t.Fatalf("iframe candidate is not a page: %+v", c)
			}
			if web.PageWeight(page) > req.MaxPageBytes {
				t.Fatalf("iframe candidate page too heavy: %+v", c)
			}
		case core.TaskScript:
			r, ok := web.LookupResource(c.TargetURL)
			if !ok || !r.NoSniff {
				t.Fatalf("script candidate without nosniff: %+v", c)
			}
		}
	}
}

func TestGenerateFromHARDeduplicates(t *testing.T) {
	p, web := testPipeline(t)
	pat := urlpattern.MustParse("twitter.com")
	site, _ := web.Site("twitter.com")
	log, err := p.FetchTarget(site.Pages[0], time.Now())
	if err != nil {
		t.Skip("twitter.com front page not fetchable in this seed")
	}
	cands := p.GenerateFromHAR(pat, log)
	seen := map[string]bool{}
	for _, c := range cands {
		key := c.Type.String() + c.TargetURL
		if seen[key] {
			t.Fatalf("duplicate candidate %+v", c)
		}
		seen[key] = true
	}
}

func TestRunProducesReportAndTasks(t *testing.T) {
	p, _ := testPipeline(t)
	list := targets.NewList()
	for _, d := range []string{"youtube.com", "twitter.com", "facebook.com", "hrw.org", "bbc.co.uk"} {
		if err := list.AddPattern(d, "test", targets.SensitivityLow); err != nil {
			t.Fatal(err)
		}
	}
	report := p.Run(list, time.Date(2014, 2, 26, 0, 0, 0, 0, time.UTC))
	if report.Patterns != 5 {
		t.Fatalf("Patterns=%d", report.Patterns)
	}
	if report.ExpandedURLs == 0 || len(report.Pages) == 0 {
		t.Fatalf("report empty: %s", report.Summary())
	}
	if len(report.Domains) != 5 {
		t.Fatalf("Domains=%d, want 5", len(report.Domains))
	}
	if report.Tasks.Len() == 0 {
		t.Fatal("no tasks generated")
	}
	counts := report.Tasks.CountByType()
	if counts[core.TaskImage] == 0 {
		t.Fatal("expected image task candidates")
	}
	// Every popular domain should have at least one candidate.
	keys := report.Tasks.PatternKeys()
	if len(keys) < 3 {
		t.Fatalf("only %d patterns have candidates", len(keys))
	}
	if report.Summary() == "" {
		t.Fatal("summary empty")
	}
}

func TestReportFigureSeries(t *testing.T) {
	p, _ := testPipeline(t)
	list := targets.HerdictHighValue()
	report := p.Run(list, time.Now())

	all, under5, under1 := report.ImagesPerDomain()
	if len(all) == 0 || len(all) != len(under5) || len(all) != len(under1) {
		t.Fatalf("images-per-domain series misaligned: %d/%d/%d", len(all), len(under5), len(under1))
	}
	for i := range all {
		if under1[i] > under5[i] || under5[i] > all[i] {
			t.Fatalf("image count series not nested at %d: %d/%d/%d", i, under1[i], under5[i], all[i])
		}
	}

	sizes := report.PageSizesKB()
	if len(sizes) == 0 {
		t.Fatal("no page sizes")
	}
	for _, s := range sizes {
		if s <= 0 {
			t.Fatalf("non-positive page size %v", s)
		}
	}

	small := report.CacheableImagesPerPage(100)
	allPages := report.CacheableImagesPerPage(0)
	if len(small) > len(allPages) {
		t.Fatal("restricted page set larger than unrestricted")
	}

	// §6.1: Encore can measure over half of domains via small images, but
	// fewer than ~10-30% of URLs qualify for the 100 KB iframe mechanism.
	domFrac := report.FractionOfDomainsMeasurable(1024)
	if domFrac < 0.4 {
		t.Fatalf("only %.2f of domains measurable with 1KB images; expected over half", domFrac)
	}
	pageFrac100 := report.FractionOfPagesIFrameMeasurable(100)
	pageFracAll := report.FractionOfPagesIFrameMeasurable(0)
	if pageFrac100 > pageFracAll {
		t.Fatal("restricting page size cannot increase the measurable fraction")
	}
	if pageFrac100 > 0.5 {
		t.Fatalf("%.2f of pages measurable at 100KB; paper finds this small (<~10%%)", pageFrac100)
	}
}

func TestTaskSetAccessors(t *testing.T) {
	ts := NewTaskSet()
	if ts.Len() != 0 || len(ts.All()) != 0 {
		t.Fatal("new task set should be empty")
	}
	c := Candidate{PatternKey: "domain:x.com", Type: core.TaskImage, TargetURL: "http://x.com/favicon.ico"}
	ts.Add(c)
	ts.Add(Candidate{PatternKey: "domain:x.com", Type: core.TaskScript, TargetURL: "http://x.com/favicon.ico"})
	ts.Add(Candidate{PatternKey: "domain:y.com", Type: core.TaskImage, TargetURL: "http://y.com/a.png"})
	if ts.Len() != 3 {
		t.Fatalf("Len=%d", ts.Len())
	}
	if len(ts.PatternKeys()) != 2 {
		t.Fatalf("PatternKeys=%v", ts.PatternKeys())
	}
	if len(ts.Candidates("domain:x.com")) != 2 {
		t.Fatal("candidates for x.com wrong")
	}
	if len(ts.All()) != 3 {
		t.Fatal("All() wrong")
	}
	task := c.Task("m-1", true)
	if task.MeasurementID != "m-1" || !task.Control || task.PatternKey != "domain:x.com" {
		t.Fatalf("materialized task wrong: %+v", task)
	}
	if err := task.Validate(); err != nil {
		t.Fatalf("materialized task invalid: %v", err)
	}
}

func TestCandidateTaskIFrameValidates(t *testing.T) {
	c := Candidate{
		PatternKey:     "domain:z.com",
		Type:           core.TaskIFrame,
		TargetURL:      "http://z.com/page.html",
		CachedImageURL: "http://z.com/logo.png",
	}
	if err := c.Task("m-2", false).Validate(); err != nil {
		t.Fatal(err)
	}
}
