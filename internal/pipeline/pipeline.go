// Package pipeline implements Encore's measurement task generation pipeline
// (§5.2, Figure 3): the Pattern Expander turns URL patterns into sets of
// concrete URLs by scraping a search index, the Target Fetcher renders each
// URL in a (headless) browser and records a HAR file, and the Task Generator
// inspects the HAR files to decide which of the measurement mechanisms in
// Table 1 can test each resource, applying the conservative §5.2 rules.
//
// The pipeline also exposes the feasibility statistics behind the paper's
// Figures 4-6: per-domain image counts, page sizes, and cacheable image
// counts.
package pipeline

import (
	"fmt"
	"sort"
	"time"

	"encore/internal/browser"
	"encore/internal/core"
	"encore/internal/har"
	"encore/internal/stats"
	"encore/internal/targets"
	"encore/internal/urlpattern"
	"encore/internal/webgen"
)

// Candidate is one generated measurement opportunity: a concrete resource
// that one task type can test, attributed to the pattern it gives evidence
// about.
type Candidate struct {
	PatternKey string
	Pattern    urlpattern.Pattern
	Type       core.TaskType
	TargetURL  string
	// CachedImageURL is set for iframe candidates.
	CachedImageURL string
	// Strict reports whether the candidate meets the preferred (strictest)
	// bound for its type, e.g. an image of at most 1 KB.
	Strict bool
}

// Task materializes the candidate into a schedulable task.
func (c Candidate) Task(measurementID string, control bool) core.Task {
	return core.Task{
		MeasurementID:  measurementID,
		Type:           c.Type,
		TargetURL:      c.TargetURL,
		CachedImageURL: c.CachedImageURL,
		PatternKey:     c.PatternKey,
		Created:        time.Time{},
		Control:        control,
	}
}

// TaskSet groups candidates by pattern key.
type TaskSet struct {
	byPattern map[string][]Candidate
	order     []string
}

// NewTaskSet returns an empty task set.
func NewTaskSet() *TaskSet {
	return &TaskSet{byPattern: make(map[string][]Candidate)}
}

// Add inserts a candidate.
func (ts *TaskSet) Add(c Candidate) {
	if _, ok := ts.byPattern[c.PatternKey]; !ok {
		ts.order = append(ts.order, c.PatternKey)
	}
	ts.byPattern[c.PatternKey] = append(ts.byPattern[c.PatternKey], c)
}

// PatternKeys returns the pattern keys with at least one candidate, in
// first-seen order.
func (ts *TaskSet) PatternKeys() []string {
	return append([]string(nil), ts.order...)
}

// Candidates returns the candidates for a pattern key.
func (ts *TaskSet) Candidates(patternKey string) []Candidate {
	return append([]Candidate(nil), ts.byPattern[patternKey]...)
}

// All returns every candidate in deterministic order.
func (ts *TaskSet) All() []Candidate {
	var out []Candidate
	for _, k := range ts.order {
		out = append(out, ts.byPattern[k]...)
	}
	return out
}

// Len returns the total number of candidates.
func (ts *TaskSet) Len() int {
	n := 0
	for _, cs := range ts.byPattern {
		n += len(cs)
	}
	return n
}

// CountByType returns candidate counts per mechanism.
func (ts *TaskSet) CountByType() map[core.TaskType]int {
	out := make(map[core.TaskType]int)
	for _, cs := range ts.byPattern {
		for _, c := range cs {
			out[c.Type]++
		}
	}
	return out
}

// maxURLsPerPattern bounds pattern expansion; the paper samples up to 50
// search results per pattern.
const maxURLsPerPattern = 50

// Pipeline wires the three stages together over the synthetic Web, using a
// browser instance as the Target Fetcher's headless browser. The fetcher
// must be located at an unfiltered vantage point (the paper used Georgia
// Tech), otherwise generated tasks inherit the fetcher's own censorship.
// Candidates are admitted by core.DefaultRequirements.
type Pipeline struct {
	Web     *webgen.Web
	Fetcher *browser.Browser
}

// New creates a pipeline.
func New(web *webgen.Web, fetcher *browser.Browser) *Pipeline {
	return &Pipeline{Web: web, Fetcher: fetcher}
}

// Expansion is the output of the Pattern Expander for one pattern.
type Expansion struct {
	Pattern urlpattern.Pattern
	URLs    []string
}

// ExpandPattern turns a URL pattern into a set of concrete page URLs.
// Trivial (exact) patterns expand to themselves; other patterns are expanded
// by querying the Web index, emulating "site:" search scraping.
func (p *Pipeline) ExpandPattern(pat urlpattern.Pattern) Expansion {
	if pat.IsTrivial() {
		return Expansion{Pattern: pat, URLs: []string{pat.URL()}}
	}
	urls := p.Web.Search(pat, maxURLsPerPattern)
	return Expansion{Pattern: pat, URLs: urls}
}

// FetchTarget renders one URL and records its HAR.
func (p *Pipeline) FetchTarget(url string, started time.Time) (*har.Log, error) {
	return p.Fetcher.RenderHAR(url, started)
}

// GenerateFromHAR examines one page's HAR and emits candidates for the
// pattern the page belongs to. It applies the Table 1 / §5.2 admission rules
// via core.Requirements.
func (p *Pipeline) GenerateFromHAR(pat urlpattern.Pattern, log *har.Log) []Candidate {
	var out []Candidate
	req := core.DefaultRequirements()
	for _, pageStats := range log.AnalyzeAll() {
		// The page itself as an iframe candidate.
		pageCand := core.Candidate{
			URL:             pageStats.URL,
			MIMEType:        "text/html",
			SizeBytes:       pageStats.TotalBytes,
			PageTotalBytes:  pageStats.TotalBytes,
			CacheableImages: pageStats.CacheableImages,
			HasLargeMedia:   pageStats.HasLargeMedia,
			HasSideEffects:  core.LikelySideEffects(pageStats.URL),
		}
		if err := req.CheckCandidate(core.TaskIFrame, pageCand); err == nil {
			if img := p.firstCacheableImage(log, pageStats.PageID); img != "" {
				out = append(out, Candidate{
					PatternKey:     pat.Key(),
					Pattern:        pat,
					Type:           core.TaskIFrame,
					TargetURL:      pageStats.URL,
					CachedImageURL: img,
					Strict:         pageStats.TotalBytes <= req.MaxPageBytes,
				})
			}
		}
		// Embedded resources as image / stylesheet / script candidates, but
		// only those hosted on the pattern's own domain: a cross-origin CDN
		// resource says nothing about whether the pattern's domain is
		// filtered.
		for _, e := range log.EntriesForPage(pageStats.PageID) {
			if urlpattern.DomainOf(e.Request.URL) != pat.Domain && !pat.Matches(e.Request.URL) {
				continue
			}
			cand := core.Candidate{
				URL:       e.Request.URL,
				MIMEType:  e.Response.Content.MimeType,
				SizeBytes: e.Response.Content.Size,
				Cacheable: e.IsCacheable(),
				NoSniff:   e.NoSniff(),
			}
			for _, tt := range []core.TaskType{core.TaskImage, core.TaskStylesheet, core.TaskScript} {
				if err := req.CheckCandidate(tt, cand); err != nil {
					continue
				}
				out = append(out, Candidate{
					PatternKey: pat.Key(),
					Pattern:    pat,
					Type:       tt,
					TargetURL:  e.Request.URL,
					Strict:     tt != core.TaskImage || req.PreferredImageBound(cand),
				})
			}
		}
	}
	return dedupeCandidates(out)
}

// firstCacheableImage returns the first cacheable image entry of a page, the
// image an iframe task will time.
func (p *Pipeline) firstCacheableImage(log *har.Log, pageID string) string {
	for _, e := range log.EntriesForPage(pageID) {
		if e.IsImage() && e.IsCacheable() {
			return e.Request.URL
		}
	}
	return ""
}

func dedupeCandidates(in []Candidate) []Candidate {
	seen := make(map[string]bool)
	var out []Candidate
	for _, c := range in {
		key := c.PatternKey + "|" + c.Type.String() + "|" + c.TargetURL
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, c)
	}
	return out
}

// DomainFeasibility summarizes whether and how a domain can be measured
// (feeds Figure 4 and the §6.1 "over half of domains" findings).
type DomainFeasibility struct {
	Domain      string
	Images      int
	Images1KB   int
	Images5KB   int
	PagesTested int
}

// PageFeasibility summarizes one crawled page (feeds Figures 5 and 6).
type PageFeasibility struct {
	URL             string
	TotalBytes      int
	CacheableImages int
	HasLargeMedia   bool
}

// Report aggregates the feasibility analysis of a pipeline run.
type Report struct {
	Patterns      int
	ExpandedURLs  int
	FetchFailures int
	Domains       []DomainFeasibility
	Pages         []PageFeasibility
	Tasks         *TaskSet
}

// Run executes the full pipeline over a target list and returns the generated
// task set and the feasibility report. Fetch failures (targets offline from
// the fetcher's vantage point) are counted but not fatal, matching the paper
// ("only 178 were online when we performed our feasibility analysis").
func (p *Pipeline) Run(list *targets.List, started time.Time) *Report {
	report := &Report{Tasks: NewTaskSet()}
	domainAgg := make(map[string]*DomainFeasibility)

	for _, entry := range list.Entries() {
		report.Patterns++
		expansion := p.ExpandPattern(entry.Pattern)
		report.ExpandedURLs += len(expansion.URLs)
		dom := entry.Pattern.Domain
		if _, ok := domainAgg[dom]; !ok {
			domainAgg[dom] = &DomainFeasibility{Domain: dom}
		}
		agg := domainAgg[dom]
		seenImages := make(map[string]bool)

		for _, url := range expansion.URLs {
			log, err := p.FetchTarget(url, started)
			if err != nil {
				report.FetchFailures++
				continue
			}
			agg.PagesTested++
			for _, ps := range log.AnalyzeAll() {
				report.Pages = append(report.Pages, PageFeasibility{
					URL:             ps.URL,
					TotalBytes:      ps.TotalBytes,
					CacheableImages: ps.CacheableImages,
					HasLargeMedia:   ps.HasLargeMedia,
				})
				for _, e := range log.EntriesForPage(ps.PageID) {
					if !e.IsImage() || urlpattern.DomainOf(e.Request.URL) != dom {
						continue
					}
					if seenImages[e.Request.URL] {
						continue
					}
					seenImages[e.Request.URL] = true
					agg.Images++
					if e.Response.Content.Size <= 1024 {
						agg.Images1KB++
					}
					if e.Response.Content.Size <= 5*1024 {
						agg.Images5KB++
					}
				}
			}
			for _, c := range p.GenerateFromHAR(entry.Pattern, log) {
				report.Tasks.Add(c)
			}
		}
	}

	var domains []string
	for d := range domainAgg {
		domains = append(domains, d)
	}
	sort.Strings(domains)
	for _, d := range domains {
		report.Domains = append(report.Domains, *domainAgg[d])
	}
	return report
}

// ImagesPerDomain returns three parallel slices of per-domain image counts:
// all images, images at most 5 KB, and images at most 1 KB — the three
// series of Figure 4.
func (r *Report) ImagesPerDomain() (all, under5KB, under1KB []int) {
	for _, d := range r.Domains {
		all = append(all, d.Images)
		under5KB = append(under5KB, d.Images5KB)
		under1KB = append(under1KB, d.Images1KB)
	}
	return all, under5KB, under1KB
}

// PageSizesKB returns the total page sizes in kilobytes (Figure 5).
func (r *Report) PageSizesKB() []float64 {
	out := make([]float64, 0, len(r.Pages))
	for _, p := range r.Pages {
		out = append(out, float64(p.TotalBytes)/1024)
	}
	return out
}

// CacheableImagesPerPage returns per-page cacheable image counts for pages of
// at most maxKB kilobytes (Figure 6); maxKB <= 0 means no limit.
func (r *Report) CacheableImagesPerPage(maxKB int) []int {
	var out []int
	for _, p := range r.Pages {
		if maxKB > 0 && p.TotalBytes > maxKB*1024 {
			continue
		}
		out = append(out, p.CacheableImages)
	}
	return out
}

// Figures renders the CDFs of Figures 4, 5 and 6, in that order, with the
// given number of points per series.
func (r *Report) Figures(points int) []stats.Figure {
	all, under5, under1 := r.ImagesPerDomain()
	figs := []stats.Figure{
		{Title: "Figure 4: images per domain", XLabel: "images per domain", YLabel: "CDF"},
		{Title: "Figure 5: total page size", XLabel: "page size (KB)", YLabel: "CDF"},
		{Title: "Figure 6: cacheable images per page", XLabel: "cacheable images per page", YLabel: "CDF"},
	}
	figs[0].AddSeries("<=1KB", stats.NewCDFInts(under1), points)
	figs[0].AddSeries("<=5KB", stats.NewCDFInts(under5), points)
	figs[0].AddSeries("all", stats.NewCDFInts(all), points)
	figs[1].AddSeries("pages", stats.NewCDF(r.PageSizesKB()), points)
	figs[2].AddSeries("<=100KB", stats.NewCDFInts(r.CacheableImagesPerPage(100)), points)
	figs[2].AddSeries("<=500KB", stats.NewCDFInts(r.CacheableImagesPerPage(500)), points)
	figs[2].AddSeries("all", stats.NewCDFInts(r.CacheableImagesPerPage(0)), points)
	return figs
}

// FractionOfDomainsMeasurable returns the fraction of crawled domains hosting
// at least one image within maxBytes (the §6.1 "over half of domains"
// claim).
func (r *Report) FractionOfDomainsMeasurable(maxBytes int) float64 {
	if len(r.Domains) == 0 {
		return 0
	}
	n := 0
	for _, d := range r.Domains {
		switch {
		case maxBytes <= 1024 && d.Images1KB > 0,
			maxBytes > 1024 && maxBytes <= 5*1024 && d.Images5KB > 0,
			maxBytes > 5*1024 && d.Images > 0:
			n++
		}
	}
	return float64(n) / float64(len(r.Domains))
}

// FractionOfPagesIFrameMeasurable returns the fraction of crawled pages that
// qualify for the iframe mechanism (at most maxKB and at least one cacheable
// image) — the §6.1 "fewer than 10% of URLs" claim at 100 KB.
func (r *Report) FractionOfPagesIFrameMeasurable(maxKB int) float64 {
	if len(r.Pages) == 0 {
		return 0
	}
	n := 0
	for _, p := range r.Pages {
		if (maxKB <= 0 || p.TotalBytes <= maxKB*1024) && p.CacheableImages > 0 && !p.HasLargeMedia {
			n++
		}
	}
	return float64(n) / float64(len(r.Pages))
}

// Summary renders the report headline numbers.
func (r *Report) Summary() string {
	return fmt.Sprintf("patterns=%d urls=%d fetchFailures=%d domains=%d pages=%d candidates=%d",
		r.Patterns, r.ExpandedURLs, r.FetchFailures, len(r.Domains), len(r.Pages), r.Tasks.Len())
}
