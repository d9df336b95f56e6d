package loadgen

// The short deterministic chaos suite CI runs (`make chaos`). Each scenario
// is one subtest so a single failure names its scenario, and every failure
// message carries the seed needed to replay it:
//
//	go test ./internal/loadgen -run TestChaos -chaos-seed <seed>
//
// The soak target (`make chaos-soak`) drives the same suite through one
// additional randomized seed, logged before the run.

import (
	"flag"
	"testing"
)

var chaosSeed = flag.Uint64("chaos-seed", 1, "seed for the chaos suite (replay a failure with the seed its message printed)")

func TestChaosSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is not -short")
	}
	seed := *chaosSeed
	results := RunChaos(seed, t.Logf)
	if want := len(ChaosScenarios()); len(results) != want {
		t.Fatalf("ran %d scenarios, want %d", len(results), want)
	}
	surfaces := make(map[string]int)
	for _, res := range results {
		res := res
		surfaces[res.Surface]++
		t.Run(res.Name, func(t *testing.T) {
			if res.Err != nil {
				t.Error(res.Err)
			}
		})
	}
	// The registry must keep covering every injection surface at its
	// acceptance floor: two per data-path surface, three on the replicated
	// control plane.
	for surface, floor := range map[string]int{"disk": 2, "network": 2, "censor": 2, "coord": 3} {
		if surfaces[surface] < floor {
			t.Errorf("only %d scenarios on the %s surface, want >= %d", surfaces[surface], surface, floor)
		}
	}
}

// TestChaosSeedDerivationIsStable pins the scenario sub-seed derivation:
// replaying a seed must regenerate the exact same per-scenario RNG streams,
// or "replay with seed N" stops meaning anything. The scenarios themselves
// do not run; reordering the registry fails here.
func TestChaosSeedDerivationIsStable(t *testing.T) {
	want := []struct {
		name string
		seed uint64
	}{
		{"disk-fsync-fail", 10451216379200822465},
		{"disk-enospc", 13757245211066428519},
		{"disk-short-write", 17911839290282890590},
		{"disk-crash-torn-tail", 8196980753821780235},
		{"net-reset-storm", 8195237237126968761},
		{"net-5xx-storm", 14072917602864530048},
		{"net-latency-spikes", 16184226688143867045},
		{"net-truncated-body", 9648886400068060533},
		{"censor-throttle-ramp", 5266705631892356520},
		{"censor-dns-flip", 14646652180046636950},
		{"churn-backdated", 7455107161863376737},
		{"coord-partition-heal", 11168034603498703870},
		{"coord-crash-restart", 8392123148533390784},
		{"coord-gossip-storm", 9778231605760336522},
	}
	scenarios := ChaosScenarios()
	for i := range scenarios {
		scenarios[i].run = func(*chaosCtx) error { return nil }
	}
	got := runChaos(1, scenarios, nil)
	if len(got) != len(want) {
		t.Fatalf("registry has %d scenarios, want %d", len(got), len(want))
	}
	for i, res := range got {
		if res.Name != want[i].name || res.Seed != want[i].seed {
			t.Errorf("scenario %d under runner seed 1 = %s seed=%d, want %s seed=%d", i, res.Name, res.Seed, want[i].name, want[i].seed)
		}
	}
}

// TestFindChaosScenario pins the by-name lookup encore-sim's -chaos-scenario
// flag relies on.
func TestFindChaosScenario(t *testing.T) {
	for _, sc := range ChaosScenarios() {
		got, ok := findChaosScenario(sc.Name)
		if !ok || got.Name != sc.Name || got.Surface != sc.Surface {
			t.Fatalf("findChaosScenario(%q) = %+v, %v", sc.Name, got, ok)
		}
	}
	if _, ok := findChaosScenario("no-such-scenario"); ok {
		t.Fatal("unknown name should not resolve")
	}
}

// TestRunChaosScenarioUnknownName checks the single-scenario runner reports
// an unknown name as a failed result instead of panicking.
func TestRunChaosScenarioUnknownName(t *testing.T) {
	res := RunChaosScenario("no-such-scenario", 1, nil)
	if res.Err == nil {
		t.Fatal("unknown scenario should fail")
	}
}

// TestRunChaosScenarioSingle runs one scenario standalone — the path
// encore-sim -chaos-scenario takes — and expects its invariants to hold.
func TestRunChaosScenarioSingle(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenarios are not -short")
	}
	res := RunChaosScenario("disk-fsync-fail", *chaosSeed, t.Logf)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Name != "disk-fsync-fail" || res.Surface != "disk" || res.Seed != *chaosSeed {
		t.Fatalf("unexpected result metadata: %+v", res)
	}
}
