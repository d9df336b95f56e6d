package clientsim

import (
	"testing"
	"time"

	"encore/internal/censor"
	"encore/internal/geo"
)

// blockPrimaryCoordinator returns paper policies extended so that China also
// blocks Encore's primary coordination server domain.
func blockPrimaryCoordinator(infra Infrastructure) *censor.Engine {
	eng := censor.PaperPolicies()
	cn, _ := eng.Policy("CN")
	cn.BlockMeasurementInfra = []string{infra.CoordinatorDomain}
	eng.SetPolicy(cn)
	return eng
}

func runCNCampaign(t *testing.T, stack *Stack, visits int) CampaignResult {
	t.Helper()
	return stack.Population.RunCampaign(CampaignConfig{
		Visits:  visits,
		Start:   time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC),
		Regions: []geo.CountryCode{"CN"},
	})
}

func TestCoordinatorMirrorsRestoreMeasurements(t *testing.T) {
	// Baseline: primary blocked, no mirrors — almost no CN measurements.
	plainInfra := DefaultInfrastructure()
	blocked := BuildStack(StackConfig{Seed: 21, Censor: blockPrimaryCoordinator(plainInfra), Infra: &plainInfra})
	resBlocked := runCNCampaign(t, blocked, 150)
	if resBlocked.TasksSubmitted > 20 {
		t.Fatalf("sanity: blocking the coordinator should suppress submissions, got %d", resBlocked.TasksSubmitted)
	}

	// Mirrored deployment: the censor still blocks only the primary domain
	// (mirrors are hosted on shared infrastructure with collateral damage),
	// so clients fall back and measurements flow again (§8).
	mirrored := DefaultInfrastructure()
	mirrored.CoordinatorMirrors = []string{
		"encore-mirror-1.shared-hosting.example.net",
		"encore-mirror-2.shared-hosting.example.net",
	}
	withMirrors := BuildStack(StackConfig{Seed: 22, Censor: blockPrimaryCoordinator(mirrored), Infra: &mirrored})
	resMirrored := runCNCampaign(t, withMirrors, 150)
	if resMirrored.TasksSubmitted < 100 {
		t.Fatalf("mirrors should restore task delivery: %d submissions", resMirrored.TasksSubmitted)
	}
	if resMirrored.CoordinatorBlocked > 20 {
		t.Fatalf("coordinator should be reachable via mirrors, blocked for %d visits", resMirrored.CoordinatorBlocked)
	}
}

func TestMirrorsDoNotHelpWhenAllBlocked(t *testing.T) {
	infra := DefaultInfrastructure()
	infra.CoordinatorMirrors = []string{"encore-mirror-1.shared-hosting.example.net"}
	eng := censor.PaperPolicies()
	cn, _ := eng.Policy("CN")
	cn.BlockMeasurementInfra = append([]string{infra.CoordinatorDomain}, infra.CoordinatorMirrors...)
	eng.SetPolicy(cn)
	stack := BuildStack(StackConfig{Seed: 23, Censor: eng, Infra: &infra})
	res := runCNCampaign(t, stack, 120)
	if res.TasksSubmitted > 15 {
		t.Fatalf("with every coordinator domain blocked, submissions should collapse: %d", res.TasksSubmitted)
	}
}

func TestWebmasterProxyBypassesCoordinatorBlocking(t *testing.T) {
	infra := DefaultInfrastructure()
	infra.WebmasterProxy = true
	stack := BuildStack(StackConfig{Seed: 24, Censor: blockPrimaryCoordinator(infra), Infra: &infra})
	res := runCNCampaign(t, stack, 150)
	if res.CoordinatorBlocked != 0 {
		t.Fatalf("webmaster proxying should make coordinator reachability irrelevant, blocked=%d", res.CoordinatorBlocked)
	}
	if res.TasksSubmitted < 100 {
		t.Fatalf("webmaster proxying should keep measurements flowing: %d submissions", res.TasksSubmitted)
	}
	// Filtering measurements from CN must still work end to end.
	byRegion := stack.Store.Stats().ByCountry
	if byRegion["CN"] < 100 {
		t.Fatalf("CN contributed only %d measurements", byRegion["CN"])
	}
}
