package targets

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestAddAndDeduplicate(t *testing.T) {
	l := NewList()
	if err := l.AddPattern("youtube.com", "herdict", SensitivityLow, "PK"); err != nil {
		t.Fatal(err)
	}
	if err := l.AddPattern("youtube.com", "greatfire", SensitivityMedium, "CN"); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 1 {
		t.Fatalf("duplicate pattern not merged: %d entries", l.Len())
	}
	e := l.Entries()[0]
	if len(e.Regions) != 2 {
		t.Fatalf("regions not merged: %v", e.Regions)
	}
	if e.Sensitivity != SensitivityMedium {
		t.Fatalf("merged sensitivity should take the max, got %v", e.Sensitivity)
	}
	if !strings.Contains(e.Source, "herdict") || !strings.Contains(e.Source, "greatfire") {
		t.Fatalf("sources not merged: %q", e.Source)
	}
}

func TestAddPatternError(t *testing.T) {
	l := NewList()
	if err := l.AddPattern("ftp://nope", "x", SensitivityLow); err == nil {
		t.Fatal("expected parse error")
	}
	if l.Len() != 0 {
		t.Fatal("failed add should not insert")
	}
}

func TestFilterSensitivity(t *testing.T) {
	l := HerdictHighValue()
	low := l.FilterSensitivity(SensitivityLow)
	if low.Len() == 0 || low.Len() >= l.Len() {
		t.Fatalf("low filter kept %d of %d", low.Len(), l.Len())
	}
	for _, e := range low.Entries() {
		if e.Sensitivity != SensitivityLow {
			t.Fatalf("entry %v leaked through low filter", e.Pattern)
		}
	}
	all := l.FilterSensitivity(SensitivityHigh)
	if all.Len() != l.Len() {
		t.Fatal("high filter should keep everything")
	}
}

func TestFilterRegion(t *testing.T) {
	l := HerdictHighValue()
	iran := l.FilterRegion("IR")
	foundYoutube := false
	for _, e := range iran.Entries() {
		if e.Pattern.Domain == "youtube.com" {
			foundYoutube = true
		}
	}
	if !foundYoutube {
		t.Fatal("youtube.com should be in the Iran-relevant list")
	}
	// Entries with no region annotation are kept.
	if iran.Len() == 0 {
		t.Fatal("region filter dropped everything")
	}
}

func TestMerge(t *testing.T) {
	merged := Merge(HerdictHighValue(), GreatFireChina(), FilbaanIran(), nil)
	if merged.Len() < HerdictHighValue().Len() {
		t.Fatal("merge lost entries")
	}
	// youtube.com appears in all three; ensure regions merged to include
	// at least CN, IR, PK.
	for _, e := range merged.Entries() {
		if e.Pattern.Domain == "youtube.com" {
			regions := strings.Join(e.Regions, ",")
			for _, want := range []string{"CN", "IR", "PK"} {
				if !strings.Contains(regions, want) {
					t.Fatalf("youtube.com regions %v missing %s", e.Regions, want)
				}
			}
		}
	}
}

func TestHerdictListShape(t *testing.T) {
	l := HerdictHighValue()
	if l.Len() < 30 {
		t.Fatalf("high-value list has only %d entries", l.Len())
	}
	// It must include the three sites the paper measured, at low risk.
	low := map[string]bool{}
	for _, e := range l.FilterSensitivity(SensitivityLow).Entries() {
		low[e.Pattern.Domain] = true
	}
	for _, d := range []string{"youtube.com", "twitter.com", "facebook.com"} {
		if !low[d] {
			t.Fatalf("%s should be a low-sensitivity target", d)
		}
	}
	if !strings.Contains(l.Summary(), "targets:") {
		t.Fatal("summary malformed")
	}
}

func TestMeasurementStudyList(t *testing.T) {
	l := MeasurementStudyList()
	if l.Len() != 3 {
		t.Fatalf("§7.2 list should contain exactly 3 domains, got %d", l.Len())
	}
	for _, e := range l.Entries() {
		if e.Sensitivity != SensitivityLow {
			t.Fatalf("measurement-study targets must be low sensitivity: %v", e.Pattern)
		}
	}
}

func TestControlList(t *testing.T) {
	l := ControlList("testbed.encore-test.org")
	if l.Len() != 2 {
		t.Fatalf("control list should have testbed + invalid domain, got %d", l.Len())
	}
	l2 := ControlList("")
	if l2.Len() != 1 {
		t.Fatalf("control list without testbed should have 1 entry, got %d", l2.Len())
	}
}

func TestReadFromAndWrite(t *testing.T) {
	input := `
# comment line
youtube.com source=herdict risk=low regions=PK,IR,CN
http://wordpress.com/posts/ risk=medium
hrw.org source=herdict risk=high regions=CN

twitter.com
`
	l, err := ReadFrom(strings.NewReader(input), "default")
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 4 {
		t.Fatalf("parsed %d entries, want 4", l.Len())
	}
	var hrw *Entry
	for i, e := range l.Entries() {
		if e.Pattern.Domain == "hrw.org" {
			tmp := l.Entries()[i]
			hrw = &tmp
		}
	}
	if hrw == nil || hrw.Sensitivity != SensitivityHigh || len(hrw.Regions) != 1 {
		t.Fatalf("hrw.org entry wrong: %+v", hrw)
	}
	// twitter.com should pick up the default source and medium risk.
	var tw *Entry
	for i, e := range l.Entries() {
		if e.Pattern.Domain == "twitter.com" {
			tmp := l.Entries()[i]
			tw = &tmp
		}
	}
	if tw == nil || tw.Source != "default" || tw.Sensitivity != SensitivityMedium {
		t.Fatalf("twitter.com defaults wrong: %+v", tw)
	}

	var buf bytes.Buffer
	if err := l.Write(&buf); err != nil {
		t.Fatal(err)
	}
	reread, err := ReadFrom(&buf, "default")
	if err != nil {
		t.Fatal(err)
	}
	if reread.Len() != l.Len() {
		t.Fatalf("round trip lost entries: %d vs %d", reread.Len(), l.Len())
	}
}

func TestReadFromReportsBadLines(t *testing.T) {
	_, err := ReadFrom(strings.NewReader("youtube.com risk=extreme\n"), "x")
	if err == nil {
		t.Fatal("unknown risk level should be reported")
	}
	_, err = ReadFrom(strings.NewReader("ftp://bad\n"), "x")
	if err == nil {
		t.Fatal("unparseable pattern should be reported")
	}
	l, err := ReadFrom(strings.NewReader("youtube.com garbage\n"), "x")
	if err == nil {
		t.Fatal("malformed annotation should be reported")
	}
	if l.Len() != 1 {
		t.Fatal("well-formed part of the line should still parse")
	}
}

func TestSensitivityString(t *testing.T) {
	if SensitivityLow.String() != "low" || SensitivityHigh.String() != "high" || Sensitivity(9).String() == "" {
		t.Fatal("sensitivity strings broken")
	}
}

func TestPatternsAccessor(t *testing.T) {
	l := MeasurementStudyList()
	if len(l.Patterns()) != 3 {
		t.Fatal("Patterns() should mirror entries")
	}
}

// Test-only list views: the product builds lists with the constructors
// and ReadFrom and hands them to the pipeline whole.

// FilterRegion returns entries believed relevant to the region (entries with
// no region annotation are always included).
func (l *List) FilterRegion(region string) *List {
	out := NewList()
	for _, e := range l.entries {
		if len(e.Regions) == 0 {
			out.Add(e)
			continue
		}
		for _, r := range e.Regions {
			if strings.EqualFold(r, region) {
				out.Add(e)
				break
			}
		}
	}
	return out
}

// ControlList returns patterns for known-unfiltered control resources plus a
// deliberately invalid domain, used by the §7.1 soundness experiments.
func ControlList(testbedDomain string) *List {
	l := NewList()
	if testbedDomain != "" {
		if err := l.AddPattern(testbedDomain, "testbed-control", SensitivityLow); err != nil {
			panic(err)
		}
	}
	if err := l.AddPattern("control-unfiltered.invalid-tld-for-dns-blocking.test", "testbed-control", SensitivityLow); err != nil {
		panic(err)
	}
	return l
}

func TestCheckSchedulable(t *testing.T) {
	read := func(text string) *List {
		t.Helper()
		l, err := ReadFrom(strings.NewReader(text), "file")
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	cases := []struct {
		name     string
		list     *List
		wantHigh string // "" when the list must pass
	}{
		{"measurement study", MeasurementStudyList(), ""},
		{"unannotated lines are medium", read("example.com\nnews.example.org/politics\n"), ""},
		{"low and medium", read("youtube.com risk=low\nbbc.co.uk risk=medium\n"), ""},
		{"one high line", read("youtube.com\nhrw.org risk=high\n"), "1 of 2"},
		{"herdict", HerdictHighValue(), "13 of "},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.list.CheckSchedulable()
			if c.wantHigh == "" {
				if err != nil {
					t.Fatalf("refused: %v", err)
				}
				return
			}
			if !errors.Is(err, ErrHighSensitivity) || !strings.Contains(err.Error(), c.wantHigh) {
				t.Fatalf("err = %v, want ErrHighSensitivity naming %q", err, c.wantHigh)
			}
		})
	}
}
