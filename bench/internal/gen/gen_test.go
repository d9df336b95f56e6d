package gen

import (
	"testing"

	"encore/internal/geo"
)

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := Fingerprint(7), Fingerprint(7), Fingerprint(8)
	if a != b {
		t.Errorf("seed 7 gave fingerprints %s and %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 gave the same fingerprint %s", a)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	s := NewStream(3, 16)
	var manifest []byte
	var want []ManifestEntry
	for i := 0; i < 4; i++ {
		b := s.Next()
		manifest = AppendManifest(manifest, b)
		for j, id := range b.IDs {
			want = append(want, ManifestEntry{ID: id, Pattern: int(b.Pattern[j])})
		}
	}
	var got []ManifestEntry
	if err := DecodeManifest(manifest, func(e ManifestEntry) { got = append(got, e) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(want))
	}
	seen := map[string]bool{}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
		if seen[got[i].ID] {
			t.Fatalf("measurement ID %s generated twice", got[i].ID)
		}
		seen[got[i].ID] = true
	}
	if err := DecodeManifest([]byte{1, 5, 'a'}, func(ManifestEntry) {}); err == nil {
		t.Error("a truncated manifest decoded without error")
	}
}

// The pool is Zipf-keyed and the clients population-weighted: the first
// pattern and the largest country must dominate, and a block's address must
// resolve to the block's region on any registry.
func TestBlocksAreSkewed(t *testing.T) {
	s := NewStream(1, 256)
	reg := geo.NewRegistry(99)
	patterns := make([]int, Patterns)
	regions := map[geo.CountryCode]int{}
	const blocks = 400
	for i := 0; i < blocks; i++ {
		b := s.Next()
		for _, p := range b.Pattern {
			patterns[p]++
		}
		regions[b.Region]++
		if got, err := reg.LookupString(b.IP); err != nil || got != b.Region {
			t.Fatalf("block address %s resolves to %q (%v), want %s", b.IP, got, err, b.Region)
		}
	}
	total := blocks * 256
	if share := float64(patterns[0]) / float64(total); share < 0.15 || share > 0.30 {
		t.Errorf("hottest pattern takes %.1f%% of measurements, want about a fifth", 100*share)
	}
	if patterns[0] <= patterns[1] || patterns[1] <= patterns[Patterns-1] {
		t.Errorf("pattern popularity is not decreasing: %d, %d, ..., %d", patterns[0], patterns[1], patterns[Patterns-1])
	}
	if regions["CN"] <= regions["FI"] {
		t.Errorf("client regions are not population-weighted: CN %d, FI %d", regions["CN"], regions["FI"])
	}
}

func TestTruthOutcomes(t *testing.T) {
	reg := geo.NewRegistry(1)
	truth := NewTruth(5, reg)
	filtered, open := 0, 0
	for p := 0; p < Patterns; p++ {
		if truth.Filtered(PatternKey(p), "US") {
			t.Fatalf("US, not a known filterer, filters %s", PatternKey(p))
		}
		if truth.Filtered(PatternKey(p), "CN") {
			filtered++
			if truth.Success(0.5, PatternKey(p), "CN") {
				t.Errorf("a filtered cell succeeded on a draw of 0.5")
			}
		} else {
			open++
			if !truth.Success(0.5, PatternKey(p), "CN") {
				t.Errorf("an open cell failed on a draw of 0.5")
			}
		}
	}
	if filtered == 0 || open == 0 {
		t.Errorf("CN filters %d of %d patterns; want some but not all", filtered, Patterns)
	}
}

func TestVisitsArriveAtTheRate(t *testing.T) {
	s := NewVisitStream(2, 0, 500)
	var last Visit
	const n = 20000
	for i := 0; i < n; i++ {
		v := s.Next()
		if v.Due < last.Due {
			t.Fatalf("visit %d is due before its predecessor", i)
		}
		last = v
	}
	if rate := n / (float64(last.Due) / 1e9); rate < 480 || rate > 520 {
		t.Errorf("visits arrive at %.0f/s, want about 500/s", rate)
	}
}
