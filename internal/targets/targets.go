// Package targets provides sources of measurement targets (§5.1): lists of
// URL patterns that are suspected of being filtered somewhere and are worth
// testing. The paper seeds Encore from third-party curated lists (Herdict's
// "high value" list, GreatFire for China, Filbaan for Iran); this package
// models those sources, merges them, and annotates entries with the safety
// considerations §8 requires before a pattern may be scheduled broadly.
package targets

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"encore/internal/urlpattern"
)

// Sensitivity classifies how risky it is to induce an uninformed client to
// request a target (§8: "Curating a list of target URLs requires striking a
// balance between ubiquitous yet uninteresting URLs ... and obscure URLs that
// governments are likely to censor").
type Sensitivity int

const (
	// SensitivityLow covers ubiquitous services browsers already contact
	// routinely via cross-origin requests (Facebook widgets, YouTube
	// embeds, Twitter feeds); the paper restricted its measurement study to
	// exactly these.
	SensitivityLow Sensitivity = iota
	// SensitivityMedium covers popular but less ubiquitous content (news
	// sites, large blogs).
	SensitivityMedium
	// SensitivityHigh covers content whose mere request may be incriminating
	// (human-rights and circumvention sites); scheduling these requires an
	// explicit policy decision.
	SensitivityHigh
)

// String names the sensitivity level.
func (s Sensitivity) String() string {
	switch s {
	case SensitivityLow:
		return "low"
	case SensitivityMedium:
		return "medium"
	case SensitivityHigh:
		return "high"
	default:
		return fmt.Sprintf("Sensitivity(%d)", int(s))
	}
}

// Entry is one measurement target: a pattern plus provenance and safety
// metadata.
type Entry struct {
	Pattern     urlpattern.Pattern
	Source      string
	Sensitivity Sensitivity
	// Regions lists countries where the source believes the target is
	// filtered (empty means "unknown / test everywhere").
	Regions []string
	// Notes carries free-form provenance.
	Notes string
}

// Key returns the aggregation key of the entry's pattern.
func (e Entry) Key() string { return e.Pattern.Key() }

// List is an ordered, de-duplicated collection of entries.
type List struct {
	entries []Entry
	byKey   map[string]int
}

// NewList returns an empty list.
func NewList() *List {
	return &List{byKey: make(map[string]int)}
}

// Add inserts an entry, merging region/provenance data if the pattern is
// already present. It reports whether the entry was new.
func (l *List) Add(e Entry) bool {
	if l.byKey == nil {
		l.byKey = make(map[string]int)
	}
	key := e.Key()
	if idx, ok := l.byKey[key]; ok {
		existing := &l.entries[idx]
		existing.Regions = mergeRegions(existing.Regions, e.Regions)
		if e.Sensitivity > existing.Sensitivity {
			existing.Sensitivity = e.Sensitivity
		}
		if e.Source != "" && !strings.Contains(existing.Source, e.Source) {
			existing.Source = existing.Source + "+" + e.Source
		}
		return false
	}
	l.byKey[key] = len(l.entries)
	l.entries = append(l.entries, e)
	return true
}

// AddPattern parses and adds a raw pattern string.
func (l *List) AddPattern(raw, source string, sensitivity Sensitivity, regions ...string) error {
	p, err := urlpattern.Parse(raw)
	if err != nil {
		return err
	}
	l.Add(Entry{Pattern: p, Source: source, Sensitivity: sensitivity, Regions: regions})
	return nil
}

// Len returns the number of entries.
func (l *List) Len() int { return len(l.entries) }

// Entries returns a copy of the entries in insertion order.
func (l *List) Entries() []Entry {
	return append([]Entry(nil), l.entries...)
}

// Patterns returns just the patterns, in insertion order.
func (l *List) Patterns() []urlpattern.Pattern {
	out := make([]urlpattern.Pattern, len(l.entries))
	for i, e := range l.entries {
		out[i] = e.Pattern
	}
	return out
}

// FilterSensitivity returns a new list containing only entries at or below
// the given sensitivity, implementing the paper's decision to restrict the
// measurement study to low-risk, ubiquitous targets (§7.2, Table 2).
func (l *List) FilterSensitivity(max Sensitivity) *List {
	out := NewList()
	for _, e := range l.entries {
		if e.Sensitivity <= max {
			out.Add(e)
		}
	}
	return out
}

// ErrHighSensitivity is returned by CheckSchedulable for a list that holds
// SensitivityHigh entries.
var ErrHighSensitivity = errors.New("targets: list holds high-sensitivity entries")

// CheckSchedulable is the §8 gate on lists that are scheduled to real
// browsers: it refuses a list holding any SensitivityHigh entry, since the
// mere request for such content may incriminate an uninformed client. The
// error names how many such entries the list holds. Analyses that schedule
// nothing (the §6.1 feasibility crawl) do not need it.
func (l *List) CheckSchedulable() error {
	high := 0
	for _, e := range l.entries {
		if e.Sensitivity >= SensitivityHigh {
			high++
		}
	}
	if high > 0 {
		return fmt.Errorf("%w: %d of %d entries are risk=high", ErrHighSensitivity, high, l.Len())
	}
	return nil
}

// Merge combines multiple lists into one.
func Merge(lists ...*List) *List {
	out := NewList()
	for _, l := range lists {
		if l == nil {
			continue
		}
		for _, e := range l.entries {
			out.Add(e)
		}
	}
	return out
}

// Summary renders counts by sensitivity and source.
func (l *List) Summary() string {
	bySens := map[Sensitivity]int{}
	bySource := map[string]int{}
	for _, e := range l.entries {
		bySens[e.Sensitivity]++
		bySource[e.Source]++
	}
	var sources []string
	for s := range bySource {
		sources = append(sources, s)
	}
	sort.Strings(sources)
	var b strings.Builder
	fmt.Fprintf(&b, "targets: %d entries (low=%d medium=%d high=%d)\n",
		l.Len(), bySens[SensitivityLow], bySens[SensitivityMedium], bySens[SensitivityHigh])
	for _, s := range sources {
		fmt.Fprintf(&b, "  source %s: %d\n", s, bySource[s])
	}
	return b.String()
}

// ErrBadLine is returned when parsing a malformed list file line.
var ErrBadLine = errors.New("targets: malformed list line")

// ReadFile reads a target list file in the ReadFrom format.
func ReadFile(path, defaultSource string) (*List, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFrom(f, defaultSource)
}

// ReadFrom parses a plain-text target list: one pattern per line, optionally
// followed by whitespace-separated "key=value" annotations (source=, risk=,
// regions=A,B). Blank lines and '#' comments are ignored. Parse errors on
// individual lines are returned after processing the remaining lines.
func ReadFrom(r io.Reader, defaultSource string) (*List, error) {
	list := NewList()
	scanner := bufio.NewScanner(r)
	var firstErr error
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		raw := fields[0]
		source := defaultSource
		sensitivity := SensitivityMedium
		var regions []string
		for _, f := range fields[1:] {
			kv := strings.SplitN(f, "=", 2)
			if len(kv) != 2 {
				if firstErr == nil {
					firstErr = fmt.Errorf("%w: line %d: %q", ErrBadLine, lineNo, f)
				}
				continue
			}
			switch kv[0] {
			case "source":
				source = kv[1]
			case "risk":
				switch kv[1] {
				case "low":
					sensitivity = SensitivityLow
				case "medium":
					sensitivity = SensitivityMedium
				case "high":
					sensitivity = SensitivityHigh
				default:
					if firstErr == nil {
						firstErr = fmt.Errorf("%w: line %d: unknown risk %q", ErrBadLine, lineNo, kv[1])
					}
				}
			case "regions":
				regions = strings.Split(kv[1], ",")
			}
		}
		if err := list.AddPattern(raw, source, sensitivity, regions...); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := scanner.Err(); err != nil {
		return list, err
	}
	return list, firstErr
}

// Write serializes the list in the format ReadFrom parses.
func (l *List) Write(w io.Writer) error {
	for _, e := range l.entries {
		risk := e.Sensitivity.String()
		line := e.Pattern.String()
		if e.Source != "" {
			line += " source=" + e.Source
		}
		line += " risk=" + risk
		if len(e.Regions) > 0 {
			line += " regions=" + strings.Join(e.Regions, ",")
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

func mergeRegions(a, b []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range append(append([]string(nil), a...), b...) {
		key := strings.ToUpper(strings.TrimSpace(r))
		if key == "" || seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, key)
	}
	sort.Strings(out)
	return out
}

// HerdictHighValue returns a list modelled on the Herdict "high value" list
// the paper's feasibility study used (§6.1): social media and video platforms
// whose filtering would cause substantial disruption, press-freedom and
// human-rights organizations, and region-specific news and blog platforms.
func HerdictHighValue() *List {
	l := NewList()
	add := func(raw string, s Sensitivity, regions ...string) {
		if err := l.AddPattern(raw, "herdict", s, regions...); err != nil {
			panic(err)
		}
	}
	// Ubiquitous platforms (the only ones the paper ultimately measured).
	add("youtube.com", SensitivityLow, "PK", "IR", "CN")
	add("twitter.com", SensitivityLow, "CN", "IR")
	add("facebook.com", SensitivityLow, "CN", "IR")
	add("wikipedia.org", SensitivityLow)
	add("blogspot.com", SensitivityMedium, "IR")
	add("wordpress.com", SensitivityMedium)
	add("tumblr.com", SensitivityMedium)
	add("flickr.com", SensitivityMedium, "CN")
	add("vimeo.com", SensitivityMedium)
	add("dailymotion.com", SensitivityMedium)
	add("reddit.com", SensitivityMedium)
	add("instagram.com", SensitivityLow, "CN")
	add("whatsapp.com", SensitivityLow)
	add("telegram.org", SensitivityMedium, "IR")
	add("github.com", SensitivityLow)
	add("archive.org", SensitivityMedium)
	// News organizations.
	add("bbc.co.uk", SensitivityMedium, "CN", "IR")
	add("nytimes.com", SensitivityMedium, "CN")
	add("voanews.com", SensitivityMedium, "IR")
	add("rferl.org", SensitivityMedium, "IR")
	add("aljazeera.com", SensitivityMedium)
	add("balatarin.com", SensitivityMedium, "IR")
	// Human-rights, press-freedom, and circumvention organizations.
	add("hrw.org", SensitivityHigh, "CN")
	add("amnesty.org", SensitivityHigh, "CN")
	add("rsf.org", SensitivityHigh)
	add("freedomhouse.org", SensitivityHigh)
	add("citizenlab.ca", SensitivityHigh)
	add("torproject.org", SensitivityHigh, "CN", "IR")
	add("greatfire.org", SensitivityHigh, "CN")
	add("herdict.org", SensitivityHigh)
	add("change.org", SensitivityHigh)
	add("avaaz.org", SensitivityHigh)
	add("ifex.org", SensitivityHigh)
	add("article19.org", SensitivityHigh)
	add("indexoncensorship.org", SensitivityHigh)
	add("persianblog.ir", SensitivityMedium, "IR")
	return l
}

// GreatFireChina returns a China-focused list modelled on GreatFire.
func GreatFireChina() *List {
	l := NewList()
	for _, raw := range []string{"youtube.com", "twitter.com", "facebook.com", "instagram.com", "hrw.org", "nytimes.com", "flickr.com", "torproject.org", "greatfire.org"} {
		if err := l.AddPattern(raw, "greatfire", SensitivityMedium, "CN"); err != nil {
			panic(err)
		}
	}
	return l
}

// FilbaanIran returns an Iran-focused list modelled on Filbaan.
func FilbaanIran() *List {
	l := NewList()
	for _, raw := range []string{"youtube.com", "twitter.com", "facebook.com", "blogspot.com", "voanews.com", "rferl.org", "balatarin.com", "persianblog.ir", "telegram.org"} {
		if err := l.AddPattern(raw, "filbaan", SensitivityMedium, "IR"); err != nil {
			panic(err)
		}
	}
	return l
}

// MeasurementStudyList returns the restricted list actually used for the
// paper's measurement study (§7.2): only Facebook, YouTube, and Twitter,
// because browsers already contact these sites routinely via cross-origin
// requests, posing little additional risk to users.
func MeasurementStudyList() *List {
	l := NewList()
	for _, raw := range []string{"youtube.com", "twitter.com", "facebook.com"} {
		if err := l.AddPattern(raw, "paper-7.2", SensitivityLow); err != nil {
			panic(err)
		}
	}
	return l
}
