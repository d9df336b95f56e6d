package report

import (
	"crypto/md5"
	"fmt"
	"strings"
	"testing"
)

// smallOptions keeps report generation fast enough for unit tests.
func smallOptions() Options {
	return Options{
		Seed:               7,
		CampaignVisits:     800,
		CacheTimingClients: 120,
		TestbedClients:     40,
		FigurePoints:       6,
	}
}

func TestGenerateProducesAllSections(t *testing.T) {
	r := Generate(smallOptions())
	wantSections := []string{
		"Table 1 — measurement mechanisms",
		"Figures 4-6 — feasibility of measuring real sites (§6.1)",
		"Figure 7 — cache-timing side channel (§7.1)",
		"Pilot demographics (§6.2)",
		"Webmaster overhead (§6.3)",
		"Testbed soundness (§7.1)",
		"Measurement campaign and filtering detection (§7, §7.2)",
		"Vantage-point coverage vs custom-software probes (§1, §2)",
	}
	if len(r.Sections) != len(wantSections) {
		t.Fatalf("got %d sections, want %d", len(r.Sections), len(wantSections))
	}
	for _, title := range wantSections {
		body, ok := r.Section(title)
		if !ok {
			t.Fatalf("missing section %q", title)
		}
		if strings.TrimSpace(body) == "" {
			t.Fatalf("section %q is empty", title)
		}
	}
	if _, ok := r.Section("nonexistent"); ok {
		t.Fatal("Section should not find unknown titles")
	}
}

func TestGenerateSectionContents(t *testing.T) {
	r := Generate(smallOptions())

	table1, _ := r.Section("Table 1 — measurement mechanisms")
	for _, want := range []string{"image", "stylesheet", "iframe", "script", "Only with Chrome"} {
		if !strings.Contains(table1, want) {
			t.Fatalf("Table 1 section missing %q", want)
		}
	}

	feas, _ := r.Section("Figures 4-6 — feasibility of measuring real sites (§6.1)")
	for _, want := range []string{"Figure 4", "Figure 5", "Figure 6", "iframe-measurable"} {
		if !strings.Contains(feas, want) {
			t.Fatalf("feasibility section missing %q", want)
		}
	}

	timing, _ := r.Section("Figure 7 — cache-timing side channel (§7.1)")
	if !strings.Contains(timing, "uncached") || !strings.Contains(timing, "50 ms") {
		t.Fatalf("cache-timing section incomplete:\n%s", timing)
	}

	campaign, _ := r.Section("Measurement campaign and filtering detection (§7, §7.2)")
	for _, want := range []string{"youtube.com", "Detected filtering", "precision"} {
		if !strings.Contains(campaign, want) {
			t.Fatalf("campaign section missing %q", want)
		}
	}

	soundness, _ := r.Section("Testbed soundness (§7.1)")
	if !strings.Contains(soundness, "match ground truth") {
		t.Fatalf("soundness section incomplete:\n%s", soundness)
	}

	overhead, _ := r.Section("Webmaster overhead (§6.3)")
	if !strings.Contains(overhead, "bytes added per origin page") {
		t.Fatalf("overhead section incomplete:\n%s", overhead)
	}
}

func TestMarkdownRendering(t *testing.T) {
	r := Generate(smallOptions())
	md := r.Markdown()
	if !strings.HasPrefix(md, "# Encore evaluation report") {
		t.Fatal("markdown missing top-level heading")
	}
	if strings.Count(md, "\n## ") != len(r.Sections) {
		t.Fatalf("markdown has %d section headings, want %d", strings.Count(md, "\n## "), len(r.Sections))
	}
	if !strings.Contains(md, "SIGCOMM 2015") {
		t.Fatal("markdown missing provenance line")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Seed == 0 || o.CampaignVisits <= 0 || o.CacheTimingClients <= 0 || o.TestbedClients <= 0 || o.FigurePoints <= 0 {
		t.Fatalf("defaults not applied: %+v", o)
	}
}

// TestReportPinned pins the default report at seed 1 — exactly what
// `encore-report -out - -seed 1` prints — byte for byte, so a refactor of
// the experiments it runs cannot change a number unnoticed. A deliberate
// change to the report's content updates the digest (md5sum of that output).
func TestReportPinned(t *testing.T) {
	const want = "8eef44ebc68a03e65c28587b0e9429d0"
	md := Generate(Options{Seed: 1}).Markdown()
	if got := fmt.Sprintf("%x", md5.Sum([]byte(md))); got != want {
		t.Errorf("report at seed 1 (%d bytes) hashes to %s, want %s", len(md), got, want)
	}
}
