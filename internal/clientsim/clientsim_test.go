package clientsim

import (
	"fmt"
	"testing"
	"time"

	"encore/internal/censor"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/inference"
	"encore/internal/results"
	"encore/internal/stats"
)

func paperStack(t *testing.T, seed uint64) *Stack {
	t.Helper()
	return BuildStack(StackConfig{Seed: seed, Censor: censor.PaperPolicies()})
}

func TestBuildStackWiring(t *testing.T) {
	s := paperStack(t, 1)
	if s.Report.Tasks.Len() == 0 {
		t.Fatal("stack built with no measurement task candidates")
	}
	if s.Store.Len() != 0 {
		t.Fatal("store should start empty")
	}
	if s.Coordinator == nil || s.Collector == nil || s.Population == nil {
		t.Fatal("stack incomplete")
	}
	// The generated candidates must cover the three §7.2 domains.
	keys := map[string]bool{}
	for _, k := range s.Report.Tasks.PatternKeys() {
		keys[k] = true
	}
	for _, d := range []string{"youtube.com", "twitter.com", "facebook.com"} {
		if !keys["domain:"+d] {
			t.Fatalf("no candidates for %s", d)
		}
	}
}

func TestSimulateVisitHappyPath(t *testing.T) {
	s := paperStack(t, 2)
	now := time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC)
	sawSubmission := false
	for i := 0; i < 30 && !sawSubmission; i++ {
		out, err := s.Population.SimulateVisit("US", now.Add(time.Duration(i)*time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		if !out.ReachedOrigin || !out.ReachedCoordinator {
			t.Fatalf("US client could not reach infrastructure: %+v", out)
		}
		if out.TasksSubmitted > 0 {
			sawSubmission = true
		}
	}
	if !sawSubmission {
		t.Fatal("no US visit produced a submission in 30 attempts")
	}
	if s.Store.Len() == 0 {
		t.Fatal("submissions did not reach the store")
	}
	if s.TaskIndex.Len() == 0 {
		t.Fatal("tasks were not registered")
	}
}

func TestSimulateVisitUnknownRegion(t *testing.T) {
	s := paperStack(t, 3)
	if _, err := s.Population.SimulateVisit("XX", time.Now()); err == nil {
		t.Fatal("unknown region should error")
	}
}

func TestCampaignProducesRegionalMeasurements(t *testing.T) {
	s := paperStack(t, 4)
	cfg := CampaignConfig{
		Visits:   600,
		Start:    time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC),
		Duration: 30 * 24 * time.Hour,
	}
	res := s.Population.RunCampaign(cfg)
	if res.Visits != 600 {
		t.Fatalf("Visits=%d", res.Visits)
	}
	if res.TasksSubmitted == 0 {
		t.Fatal("campaign produced no submissions")
	}
	stats := s.Store.Stats()
	if stats.Measurements == 0 || stats.DistinctClients == 0 {
		t.Fatalf("store stats empty: %+v", stats)
	}
	if stats.Countries < 5 {
		t.Fatalf("campaign covered only %d countries", stats.Countries)
	}
	if len(res.ByRegion) < 5 {
		t.Fatalf("campaign regions=%d", len(res.ByRegion))
	}
	if res.String() == "" {
		t.Fatal("empty campaign summary")
	}
}

func TestEndToEndDetectionMatchesPaper(t *testing.T) {
	// The E9 integration check: run a campaign with the paper's censorship
	// policies, then verify the detector finds youtube.com filtered in
	// PK/IR/CN, twitter.com and facebook.com in CN/IR, and nothing in
	// unfiltered regions.
	s := paperStack(t, 5)
	regions := []geo.CountryCode{
		"US", "US", "US", "DE", "GB", "BR", "IN", "FR", "JP", "CA",
		"PK", "PK", "IR", "IR", "CN", "CN", "CN",
	}
	cfg := CampaignConfig{
		Visits:   2600,
		Start:    time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC),
		Duration: 60 * 24 * time.Hour,
		Regions:  regions,
	}
	s.Population.RunCampaign(cfg)

	detector := inference.New(inference.DefaultConfig())
	verdicts := detector.DetectStore(s.Store)
	flagged := inference.FilteredSet(verdicts)

	expectFiltered := []string{
		"domain:youtube.com|PK",
		"domain:youtube.com|IR",
		"domain:youtube.com|CN",
		"domain:twitter.com|CN",
		"domain:twitter.com|IR",
		"domain:facebook.com|CN",
		"domain:facebook.com|IR",
	}
	for _, key := range expectFiltered {
		if !flagged[key] {
			t.Errorf("expected detection missing: %s", key)
		}
	}
	expectClear := []string{
		"domain:youtube.com|US",
		"domain:twitter.com|US",
		"domain:facebook.com|GB",
		"domain:twitter.com|PK",
		"domain:facebook.com|PK",
	}
	for _, key := range expectClear {
		if flagged[key] {
			t.Errorf("false detection: %s", key)
		}
	}

	// Scoring against ground truth should show high precision.
	conf := inference.Score(verdicts, s.GroundTruth(), inference.DefaultConfig().MinMeasurements)
	if conf.Precision() < 0.9 {
		t.Fatalf("precision %.2f too low: %+v", conf.Precision(), conf)
	}
	if conf.TruePositives < 5 {
		t.Fatalf("too few true positives: %+v", conf)
	}
}

func TestInfrastructureBlockingSuppressesMeasurements(t *testing.T) {
	// §8: a censor that blocks the coordination server prevents clients in
	// its region from contributing measurements at all.
	eng := censor.PaperPolicies()
	cnPolicy, _ := eng.Policy("CN")
	cnPolicy.BlockMeasurementInfra = []string{DefaultInfrastructure().CoordinatorDomain}
	eng.SetPolicy(cnPolicy)

	s := BuildStack(StackConfig{Seed: 6, Censor: eng})
	res := s.Population.RunCampaign(CampaignConfig{
		Visits:  200,
		Start:   time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC),
		Regions: []geo.CountryCode{"CN"},
	})
	if res.CoordinatorBlocked < 150 {
		t.Fatalf("coordinator should be blocked for nearly all CN visits, got %d/%d", res.CoordinatorBlocked, res.Visits)
	}
	byRegion := s.Store.CountByRegion()
	if byRegion["CN"] > 10 {
		t.Fatalf("CN contributed %d measurements despite infrastructure blocking", byRegion["CN"])
	}
}

func TestCacheTimingExperimentSeparation(t *testing.T) {
	s := BuildStack(StackConfig{Seed: 7})
	fav, ok := s.Web.FaviconOf("wikipedia.org")
	if !ok {
		t.Skip("no favicon in this seed")
	}
	exp := s.Population.RunCacheTiming(150, fav.URL)
	if len(exp.Uncached) < 100 {
		t.Fatalf("only %d clients completed the cache-timing experiment", len(exp.Uncached))
	}
	medCached := stats.QuantileUnsorted(exp.Cached, 0.5)
	medUncached := stats.QuantileUnsorted(exp.Uncached, 0.5)
	if medCached > 20 {
		t.Fatalf("median cached load %.1fms; Figure 7 shows a few tens of ms at most", medCached)
	}
	if medUncached-medCached < 50 {
		t.Fatalf("median uncached-cached separation %.1fms; Figure 7 shows >=50ms", medUncached-medCached)
	}
	slowEnough := 0
	for _, d := range exp.Differences {
		if d >= 50 {
			slowEnough++
		}
	}
	if float64(slowEnough)/float64(len(exp.Differences)) < 0.7 {
		t.Fatalf("only %d/%d clients show a >=50ms difference", slowEnough, len(exp.Differences))
	}
}

func TestCampaignEmptyConfig(t *testing.T) {
	s := BuildStack(StackConfig{Seed: 8})
	res := s.Population.RunCampaign(CampaignConfig{})
	if res.Visits != 0 {
		t.Fatal("zero-visit campaign should do nothing")
	}
}

func TestInitOnlyRecordsWhenClientsAbandon(t *testing.T) {
	s := BuildStack(StackConfig{Seed: 9})
	s.Population.AbandonProbability = 1.0 // every client navigates away
	s.Population.RunCampaign(CampaignConfig{
		Visits:  100,
		Start:   time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC),
		Regions: []geo.CountryCode{"US"},
	})
	completed := 0
	initOnly := 0
	for _, m := range s.Store.All() {
		if m.Completed() {
			completed++
		} else if m.State == core.StateInit {
			initOnly++
		}
	}
	if completed != 0 {
		t.Fatalf("abandoning clients still completed %d measurements", completed)
	}
	if initOnly == 0 {
		t.Fatal("abandoned tasks should leave init records")
	}
	// Init-only records must not produce detections.
	verdicts := inference.New(inference.DefaultConfig()).DetectStore(s.Store)
	if len(inference.Filtered(verdicts)) != 0 {
		t.Fatal("init-only records caused detections")
	}
}

func TestDistinctMeasurementIDsAcrossCampaign(t *testing.T) {
	s := paperStack(t, 10)
	s.Population.RunCampaign(CampaignConfig{
		Visits:  150,
		Start:   time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC),
		Regions: []geo.CountryCode{"US", "GB"},
	})
	all := s.Store.All()
	seen := make(map[string]bool, len(all))
	for _, m := range all {
		if seen[m.MeasurementID] {
			t.Fatalf("duplicate measurement ID %s in store", m.MeasurementID)
		}
		seen[m.MeasurementID] = true
	}
	_ = results.Aggregate(all)
}

// TestBuildStackResumesItsWAL: a stack built on a WAL directory another stack
// closed resumes that store, and its commits (the same seed re-submits the
// same IDs) continue the log's positions instead of reissuing them.
func TestBuildStackResumesItsWAL(t *testing.T) {
	wal := &results.WALConfig{Dir: t.TempDir()}
	closedWith := 0
	for life := 0; life < 2; life++ {
		s := BuildStack(StackConfig{Seed: 11, WAL: wal})
		if s.Store.Len() != closedWith {
			t.Fatalf("stack resumed %d records, the previous one closed with %d", s.Store.Len(), closedWith)
		}
		s.Population.RunCampaign(CampaignConfig{
			Visits:  60,
			Start:   time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(life) * time.Hour),
			Regions: []geo.CountryCode{"US"},
		})
		closedWith = s.Store.Len()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	logged, err := results.OpenWAL(*wal)
	if err != nil {
		t.Fatal(err)
	}
	defer logged.Close()
	seen := make(map[uint64]bool)
	err = logged.ReadRecordFrames(0, func(cseq uint64, _ []byte) error {
		if seen[cseq] {
			return fmt.Errorf("commit position %d appears twice in the log", cseq)
		}
		seen[cseq] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
