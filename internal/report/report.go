// Package report regenerates the paper's complete evaluation as a single
// human-readable document. It wires together the feasibility pipeline
// (Figures 4-6), the cache-timing experiment (Figure 7), the pilot analysis
// (§6.2), the webmaster-overhead measurement (§6.3), the testbed soundness
// experiment (§7.1), a measurement campaign with filtering detection (§7,
// §7.2), and the vantage-point coverage comparison — the same experiments the
// benchmark harness runs, packaged for `encore-report` and for anyone who
// wants one artifact summarizing a run.
package report

import (
	"fmt"
	"strings"
	"time"

	"encore/internal/analytics"
	"encore/internal/baseline"
	"encore/internal/censor"
	"encore/internal/clientsim"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/inference"
	"encore/internal/originserver"
	"encore/internal/stats"
	"encore/internal/targets"
	"encore/internal/testbed"
)

// Options parameterize report generation. Zero values select defaults sized
// for an interactive run (a couple of minutes of CPU).
type Options struct {
	// Seed drives every synthetic substrate.
	Seed uint64
	// CampaignVisits is the number of origin-page visits to simulate for
	// the §7/§7.2 sections.
	CampaignVisits int
	// CacheTimingClients is the number of clients in the Figure 7
	// experiment; the paper used 1,099.
	CacheTimingClients int
	// TestbedClients is the number of clients used for §7.1 soundness.
	TestbedClients int
	// FigurePoints is the number of points per rendered CDF.
	FigurePoints int
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.CampaignVisits <= 0 {
		o.CampaignVisits = 4000
	}
	if o.CacheTimingClients <= 0 {
		o.CacheTimingClients = 1099
	}
	if o.TestbedClients <= 0 {
		o.TestbedClients = 200
	}
	if o.FigurePoints <= 0 {
		o.FigurePoints = 12
	}
	return o
}

// Section is one titled block of the report.
type Section struct {
	Title string
	Body  string
}

// Report is the generated document.
type Report struct {
	GeneratedFor string
	Options      Options
	Sections     []Section
}

// add appends a section.
func (r *Report) add(title, body string) {
	r.Sections = append(r.Sections, Section{Title: title, Body: body})
}

// Section returns the body of the section with the given title, if present.
func (r *Report) Section(title string) (string, bool) {
	for _, s := range r.Sections {
		if s.Title == title {
			return s.Body, true
		}
	}
	return "", false
}

// Markdown renders the report as a Markdown document.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Encore evaluation report\n\n")
	fmt.Fprintf(&b, "Reproduction of %s. Seed %d, %d campaign visits.\n\n",
		r.GeneratedFor, r.Options.Seed, r.Options.CampaignVisits)
	for _, s := range r.Sections {
		fmt.Fprintf(&b, "## %s\n\n", s.Title)
		b.WriteString(strings.TrimRight(s.Body, "\n"))
		b.WriteString("\n\n")
	}
	return b.String()
}

// Generate runs every experiment and assembles the report.
func Generate(opts Options) *Report {
	opts = opts.withDefaults()
	r := &Report{
		GeneratedFor: "Burnett & Feamster, \"Encore: Lightweight Measurement of Web Censorship with Cross-Origin Requests\" (SIGCOMM 2015)",
		Options:      opts,
	}

	// A single stack powers the feasibility, campaign, Figure 7, and
	// coverage sections; the testbed gets its own engine so its global
	// rules do not leak into the campaign.
	stack := clientsim.BuildStack(clientsim.StackConfig{
		Seed:    opts.Seed,
		Censor:  censor.PaperPolicies(),
		Targets: targets.MeasurementStudyList(),
	})

	r.add("Table 1 — measurement mechanisms", table1Section())
	r.add("Figures 4-6 — feasibility of measuring real sites (§6.1)", feasibilitySection(opts))
	r.add("Figure 7 — cache-timing side channel (§7.1)", cacheTimingSection(opts, stack))
	r.add("Pilot demographics (§6.2)", pilotSection(opts))
	r.add("Webmaster overhead (§6.3)", overheadSection(stack))
	r.add("Testbed soundness (§7.1)", testbedSection(opts))
	r.add("Measurement campaign and filtering detection (§7, §7.2)", campaignSection(opts, stack))
	r.add("Vantage-point coverage vs custom-software probes (§1, §2)", coverageSection(opts, stack))
	return r
}

func table1Section() string {
	var b strings.Builder
	fmt.Fprintf(&b, "| Mechanism | Feedback | Chrome only | Limitations |\n|---|---|---|---|\n")
	for _, row := range core.Table1() {
		fmt.Fprintf(&b, "| %s | %s | %v | %s |\n", row.Type, row.Feedback, row.ChromeOnly, strings.Join(row.Limitations, " "))
	}
	return b.String()
}

func feasibilitySection(opts Options) string {
	// The feasibility crawl uses the larger Herdict-style list over its own
	// (unfiltered) stack so the numbers match the §6.1 setting.
	stack := clientsim.BuildStack(clientsim.StackConfig{
		Seed:    opts.Seed + 10,
		Targets: targets.HerdictHighValue(),
	})
	rep := stack.Report

	var b strings.Builder
	fmt.Fprintf(&b, "Crawl: %s\n\n", rep.Summary())
	for _, fig := range rep.Figures(opts.FigurePoints) {
		b.WriteString("```\n" + fig.Render() + "```\n\n")
	}

	fmt.Fprintf(&b, "- domains measurable with <=1 KB images: %.0f%% (paper: over half)\n", 100*rep.FractionOfDomainsMeasurable(1024))
	fmt.Fprintf(&b, "- pages iframe-measurable at <=100 KB: %.0f%% (paper: fewer than 10%%)\n", 100*rep.FractionOfPagesIFrameMeasurable(100))
	return b.String()
}

func cacheTimingSection(opts Options, stack *clientsim.Stack) string {
	fav, ok := stack.Web.FaviconOf("wikipedia.org")
	if !ok {
		for _, d := range stack.Web.ContentDomains() {
			if f, ok2 := stack.Web.FaviconOf(d); ok2 {
				fav = f
				break
			}
		}
	}
	if fav == nil {
		return "no favicon available for the cache-timing experiment"
	}
	exp := stack.Population.RunCacheTiming(opts.CacheTimingClients, fav.URL)
	uncached := stats.Summarize(exp.Uncached)
	cached := stats.Summarize(exp.Cached)
	over50 := stats.Fraction(exp.Differences, func(v float64) bool { return v >= 50 })
	var b strings.Builder
	fmt.Fprintf(&b, "%d clients loaded %s uncached and then cached.\n\n", len(exp.Uncached), fav.URL)
	fmt.Fprintf(&b, "| series | median (ms) | p90 (ms) |\n|---|---|---|\n")
	fmt.Fprintf(&b, "| uncached | %.1f | %.1f |\n", uncached.Median, uncached.P90)
	fmt.Fprintf(&b, "| cached | %.1f | %.1f |\n", cached.Median, cached.P90)
	fmt.Fprintf(&b, "\n%.0f%% of clients took at least 50 ms longer uncached (the threshold the iframe task uses).\n", 100*over50)
	return b.String()
}

func pilotSection(opts Options) string {
	g := geo.NewRegistry(opts.Seed + 20)
	visits := analytics.GeneratePilot(opts.Seed+20, g)
	rep := analytics.Analyze(visits, g)
	return rep.String()
}

func overheadSection(stack *clientsim.Stack) string {
	snippet := core.SnippetOptions{
		CoordinatorURL: "//" + stack.Infra.CoordinatorDomain,
		CollectorURL:   "//" + stack.Infra.CollectorDomain,
	}
	origin := originserver.New("professor.example.edu", snippet)
	overhead := origin.PageOverheadBytes(origin.Pages()["/"])
	task := core.Task{MeasurementID: "m-report", Type: core.TaskImage,
		TargetURL: "http://youtube.com/favicon.ico", PatternKey: "domain:youtube.com"}
	script := core.GenerateTaskScript(task, snippet)
	var b strings.Builder
	fmt.Fprintf(&b, "- embed snippet: `%s`\n", core.EmbedSnippet(snippet))
	fmt.Fprintf(&b, "- bytes added per origin page: %d (paper: ~100)\n", overhead)
	fmt.Fprintf(&b, "- generated image-task script: %d bytes plain, %d bytes minified+obfuscated\n",
		len(script), len(core.ObfuscateScript(script, task.MeasurementID)))
	fmt.Fprintf(&b, "- extra requests to the origin server per page view: 0\n")
	return b.String()
}

func testbedSection(opts Options) string {
	regions := []geo.CountryCode{"US", "DE", "GB", "BR", "IN", "IN", "KR", "JP"}
	res := testbed.New("testbed.encore-report.org").Validate(opts.Seed+30, opts.TestbedClients, regions)
	var b strings.Builder
	fmt.Fprintf(&b, "- %d validation measurements against the seven-mechanism testbed\n", res.Measurements)
	fmt.Fprintf(&b, "- %.1f%% of task verdicts match ground truth\n", res.PctCorrect())
	fmt.Fprintf(&b, "- image-task false-positive rate on unfiltered controls: %.1f%% (paper: ~5%%, driven by India)\n",
		res.PctImageFalsePositives())
	fmt.Fprintf(&b, "- known blind spot: the script mechanism reports success whenever the fetch returns HTTP 200, so block-page substitution is invisible to it\n")
	return b.String()
}

func campaignSection(opts Options, stack *clientsim.Stack) string {
	res := stack.Population.RunCampaign(clientsim.CampaignConfig{
		Visits:   opts.CampaignVisits,
		Start:    time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC),
		Duration: 7 * 30 * 24 * time.Hour,
	})
	st := stack.Store.Stats()
	// The collector maintained group counters incrementally during the
	// campaign, so detection reads them directly instead of rescanning the
	// store (O(groups) instead of O(store)).
	verdicts := inference.New(inference.DefaultConfig()).DetectIncremental(stack.Aggregator)
	conf := inference.Score(verdicts, stack.GroundTruth(), inference.DefaultConfig().MinMeasurements)

	var b strings.Builder
	fmt.Fprintf(&b, "Campaign: %s\n\n", res)
	fmt.Fprintf(&b, "- %d measurements from %d distinct IPs in %d countries (paper: 141,626 / 88,260 / 170)\n",
		st.Measurements, st.DistinctClients, st.Countries)
	fmt.Fprintf(&b, "- top countries:")
	for _, c := range st.TopCountries(6) {
		fmt.Fprintf(&b, " %s(%d)", c, st.ByCountry[c])
	}
	fmt.Fprintf(&b, "\n\n%s\n", inference.Report(verdicts))
	fmt.Fprintf(&b, "Scoring against simulator ground truth: precision %.2f, recall %.2f (TP=%d FP=%d FN=%d).\n",
		conf.Precision(), conf.Recall(), conf.TruePositives, conf.FalsePositives, conf.FalseNegatives)
	fmt.Fprintf(&b, "\nPaper §7.2 expects youtube.com filtered in PK, IR, CN and twitter.com / facebook.com filtered in CN, IR.\n")
	return b.String()
}

func coverageSection(opts Options, stack *clientsim.Stack) string {
	st := stack.Store.Stats()
	cmp := baseline.Compare(stack.Geo, st.ByCountry, st.DistinctClients, opts.CampaignVisits, stats.NewRNG(opts.Seed+40))
	return cmp.String() + "\n"
}
