package coordfed_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"encore/internal/api"
	"encore/internal/coordfed"
	"encore/internal/coordserver"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/pipeline"
	"encore/internal/results"
	"encore/internal/scheduler"
)

// This file holds the ROADMAP-named replicated-control-plane test: K=3
// coordinators with real gossip loops over real listeners serve disjoint
// client populations, one coordinator is killed and restarted mid-campaign
// (rejoining under a fresh origin per the incarnation rule), and the cluster
// must converge to a single global coverage view whose per-region balance
// spread is at most one, with a focus schedule bit-identical to a
// single-coordinator baseline run from the same anchor.

const fedWindow = 1000 * time.Hour

func integrationTaskSet() *pipeline.TaskSet {
	ts := pipeline.NewTaskSet()
	ts.Add(pipeline.Candidate{PatternKey: "domain:aaa-script-only.org", Type: core.TaskScript,
		TargetURL: "http://aaa-script-only.org/app.js", Strict: true})
	for i := 1; i < 6; i++ {
		d := fmt.Sprintf("balance%02d.example.org", i)
		ts.Add(pipeline.Candidate{PatternKey: "domain:" + d, Type: core.TaskImage,
			TargetURL: "http://" + d + "/favicon.ico", Strict: true})
	}
	return ts
}

func integrationSchedulerConfig(seed uint64) scheduler.Config {
	cfg := scheduler.DefaultConfig()
	cfg.QuorumWindow = fedWindow
	cfg.Seed = seed
	return cfg
}

// fedNode is one live coordinator: full coordserver on a real listener with
// the federation's gossip loop running.
type fedNode struct {
	origin string
	addr   string
	sched  *scheduler.Scheduler
	fed    *coordfed.Federation
	hs     *http.Server
}

func startNode(t *testing.T, ln net.Listener, origin string, peers []string, seed uint64) *fedNode {
	t.Helper()
	coord, err := coordserver.Open(coordserver.Config{
		Tasks:     integrationTaskSet(),
		Scheduler: integrationSchedulerConfig(seed),
		Index:     results.NewTaskIndex(),
		Geo:       geo.NewRegistry(1),
		Federation: &coordfed.Config{
			Origin:     origin,
			Peers:      peers,
			Interval:   20 * time.Millisecond,
			MaxBackoff: 500 * time.Millisecond,
			Timeout:    2 * time.Second,
			Seed:       seed,
		},
	})
	if err != nil {
		t.Fatalf("coordserver.Open(%s): %v", origin, err)
	}
	sched, fed := coord.Scheduler, coord.Federation
	n := &fedNode{origin: origin, addr: ln.Addr().String(), sched: sched, fed: fed,
		hs: &http.Server{Handler: coord}}
	go n.hs.Serve(ln)
	fed.Start()
	return n
}

func (n *fedNode) stop() {
	n.fed.Close()
	n.hs.Close()
}

// relisten rebinds a just-released loopback address; the retry loop absorbs
// the OS briefly holding the port after close.
func relisten(t *testing.T, addr string) net.Listener {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

var fedRegions = []geo.CountryCode{"US", "PK", "CN"}

func fedClient(region geo.CountryCode) scheduler.ClientInfo {
	return scheduler.ClientInfo{Region: region, Browser: core.BrowserFirefox, ExpectedDwellSeconds: 5}
}

// globalTotals sums a node's global view over every pattern and test region.
func globalTotals(s *scheduler.Scheduler) int {
	total := 0
	for _, key := range s.PatternKeys() {
		for _, region := range fedRegions {
			total += s.GlobalAssignments(key, region)
		}
	}
	return total
}

// waitConverged polls until every live node reports the identical global
// count for every (pattern, region) and that shared total is at least floor.
func waitConverged(t *testing.T, nodes []*fedNode, floor int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if fedViewsConverged(nodes) && globalTotals(nodes[0].sched) >= floor {
			return
		}
		if time.Now().After(deadline) {
			for _, n := range nodes {
				t.Logf("%s: total=%d", n.origin, globalTotals(n.sched))
			}
			t.Fatalf("cluster did not converge to a shared view with total >= %d", floor)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func fedViewsConverged(nodes []*fedNode) bool {
	keys := nodes[0].sched.PatternKeys()
	for _, key := range keys {
		for _, region := range fedRegions {
			want := nodes[0].sched.GlobalAssignments(key, region)
			for _, n := range nodes[1:] {
				if n.sched.GlobalAssignments(key, region) != want {
					return false
				}
			}
		}
	}
	return true
}

func TestThreeCoordinatorsKillRestartConverge(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second federation campaign")
	}
	// Bind all listeners first so every node can be configured with its
	// peers' final URLs.
	lns := make([]net.Listener, 3)
	urls := make([]string, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	peersOf := func(i int) []string {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		return peers
	}
	nodes := make([]*fedNode, 3)
	for i := range nodes {
		nodes[i] = startNode(t, lns[i], fmt.Sprintf("c%d", i), peersOf(i), uint64(100+i))
	}
	defer func() {
		for _, n := range nodes {
			n.stop()
		}
	}()

	// The campaign anchor: node 0 assigns first, so the cluster-wide
	// minimum anchor is T0 and every schedule must rotate from it.
	t0 := time.Unix(6_000_000, 0)
	nodes[0].sched.Assign(fedClient("US"), t0)

	// Phase 1: disjoint populations. Each coordinator serves only its own
	// region, concurrently with the gossip loops.
	for i, n := range nodes {
		for p := 0; p < 40; p++ {
			n.sched.Assign(fedClient(fedRegions[i]), t0.Add(time.Duration(p+1)*time.Millisecond))
		}
	}
	waitConverged(t, nodes, 0)
	preKillTotal := globalTotals(nodes[0].sched)

	// Phase 2: kill coordinator 1 mid-campaign. The survivors keep serving
	// and mark the dead peer; nobody blocks.
	nodes[1].stop()
	for _, i := range []int{0, 2} {
		for p := 0; p < 20; p++ {
			if got := nodes[i].sched.Assign(fedClient(fedRegions[i]), t0.Add(time.Second)); len(got) == 0 {
				t.Fatalf("node %d blocked assignment while peer was down", i)
			}
		}
	}
	// The survivors' healthz must report the dead peer without going
	// degraded (2 of 3 coordinators is still a quorum).
	waitPeerDown(t, urls[0], urls[1])

	// Phase 3: restart on the same address with a fresh scheduler. The
	// incarnation rule: the replacement joins under a NEW origin; the old
	// incarnation's counts live on at the peers under "c1".
	nodes[1] = startNode(t, relisten(t, nodes[1].addr), "c1b", peersOf(1), 999)
	for p := 0; p < 20; p++ {
		nodes[1].sched.Assign(fedClient(fedRegions[1]), t0.Add(2*time.Second))
	}
	waitConverged(t, nodes, preKillTotal+60)
	if got := globalTotals(nodes[1].sched); got < preKillTotal {
		t.Fatalf("restarted coordinator recovered only %d of the %d pre-kill assignments", got, preKillTotal)
	}

	// The whole cluster agrees on the minimum anchor — including the
	// restarted node, which never saw T0 locally.
	for _, n := range nodes {
		if a := n.sched.Anchor(); a != t0.UnixNano() {
			t.Fatalf("%s anchor %d, want %d", n.origin, a, t0.UnixNano())
		}
	}

	// Phase 4: converged lockstep. With gossip keeping views current,
	// serialized picks must water-fill the image patterns to a global
	// per-region spread of at most one.
	ctx := context.Background()
	at := t0.Add(3 * time.Second)
	for pick := 0; pick < 30; pick++ {
		i := pick % 3
		region := fedRegions[pick%len(fedRegions)]
		nodes[i].sched.Assign(fedClient(region), at)
		// Force immediate convergence so the next pick sees this one.
		for _, n := range nodes {
			n.fed.RunRound(ctx)
		}
	}
	waitConverged(t, nodes, 0)
	keys := nodes[0].sched.PatternKeys()
	for _, region := range fedRegions {
		min, max := -1, -1
		for _, key := range keys[1:] { // skip the script-only focus pattern
			c := nodes[0].sched.GlobalAssignments(key, region)
			if min == -1 || c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if max-min > 1 {
			t.Fatalf("global balance spread in %s is %d (min=%d max=%d), want <= 1", region, max-min, min, max)
		}
	}

	// Phase 5: the focus schedule across every coordinator is bit-identical
	// to a single-coordinator baseline anchored at the same first
	// assignment.
	baseline := scheduler.New(integrationTaskSet(), integrationSchedulerConfig(424242))
	// Pin the baseline's rotation anchor by issuing its first assignment
	// at exactly the cluster's first-assignment instant.
	baseline.Assign(fedClient("US"), t0)
	if baseline.Anchor() != t0.UnixNano() {
		t.Fatalf("baseline anchor %d, want %d", baseline.Anchor(), t0.UnixNano())
	}
	for i := 0; i < 3*len(keys); i++ {
		tm := t0.Add(time.Duration(i)*fedWindow + fedWindow/2)
		want := baseline.FocusPattern(tm)
		for _, n := range nodes {
			if got := n.sched.FocusPattern(tm); got != want {
				t.Fatalf("%s focus at window %d = %q, baseline %q", n.origin, i, got, want)
			}
		}
	}
}

// waitPeerDown polls a coordinator's /v2/healthz until it reports peerURL as
// suspect or dead, asserting the federated health surface over real HTTP.
func waitPeerDown(t *testing.T, healthFrom, peerURL string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(healthFrom + api.V2HealthPath)
		if err == nil {
			var hr api.HealthResponse
			err = json.NewDecoder(resp.Body).Decode(&hr)
			resp.Body.Close()
			if err == nil {
				if hr.Status == api.StatusDegraded {
					t.Fatal("coordinator reported degraded with 2 of 3 nodes reachable")
				}
				for _, ph := range hr.Peers {
					if ph.URL == peerURL && ph.State != coordfed.PeerAlive {
						return
					}
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never marked peer %s suspect/dead", healthFrom, peerURL)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
