package loadgen

// The coordinator-federation chaos scenarios ("coord" surface): K=3
// replicated coordinators gossiping over real loopback HTTP while the
// campaign injects the control-plane failures the federation must absorb —
// a network partition that heals, a coordinator crash with a
// fresh-incarnation restart, and a gossip storm of connection resets, 5xx
// bursts, and duplicated/stale frames. Every scenario steps gossip rounds
// explicitly (RunRound) instead of running wall-clock probe loops, so a
// replayed seed reproduces the exact exchange order. The standing
// invariants: Assign never blocks or comes back empty on any coordinator at
// any point, quorum loss is reported as degraded (and only then), and after
// the fault clears the cluster converges to one global coverage view with
// per-region balance spread <= 1 and a focus schedule bit-identical to a
// same-anchor single-coordinator baseline.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"encore/internal/api"
	"encore/internal/coordfed"
	"encore/internal/coordserver"
	"encore/internal/core"
	"encore/internal/faultinject"
	"encore/internal/geo"
	"encore/internal/pipeline"
	"encore/internal/results"
	"encore/internal/scheduler"
	"encore/internal/wire"
)

// coordWindow keeps the focus on the script-only pattern for the whole
// campaign, so every Firefox pick exercises the globally-balanced path.
const coordWindow = 1000 * time.Hour

// coordRegions assigns each of the three coordinators its own disjoint
// client population.
var coordRegions = []geo.CountryCode{"US", "PK", "CN"}

// coordTaskSet is the balance probe: one script-only focus pattern plus five
// image patterns every family can measure.
func coordTaskSet() *pipeline.TaskSet {
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

func coordSchedulerConfig(seed uint64) scheduler.Config {
	cfg := scheduler.DefaultConfig()
	cfg.QuorumWindow = coordWindow
	cfg.Seed = seed
	return cfg
}

// coordNode is one coordinator in a chaos cluster: built by
// coordserver.Open and served on its own loopback listener. The scenarios
// step its gossip rounds by hand (RunRound) instead of starting Serve's
// wall-clock loops, so a replayed seed reproduces the exchange order.
type coordNode struct {
	origin string
	host   string
	coord  *coordserver.Server
	sched  *scheduler.Scheduler
	fed    *coordfed.Federation
	srv    *httptest.Server
}

func (n *coordNode) stop() {
	if n.coord != nil {
		n.coord.Close()
	}
	n.srv.Close()
}

// listenCoordNode binds one coordinator's listener (ln, or a fresh loopback
// port when nil) so its URL is known before its peers are opened.
func listenCoordNode(origin string, ln net.Listener) *coordNode {
	n := &coordNode{origin: origin, srv: httptest.NewUnstartedServer(nil)}
	if ln != nil {
		n.srv.Listener.Close()
		n.srv.Listener = ln
	}
	n.host = n.srv.Listener.Addr().String()
	return n
}

// open builds the node's coordinator, federated with peers over transport,
// and starts answering on its listener.
func (n *coordNode) open(schedSeed uint64, peers []string, transport http.RoundTripper, fedSeed uint64) error {
	coord, err := coordserver.Open(coordserver.Config{
		Tasks:     coordTaskSet(),
		Scheduler: coordSchedulerConfig(schedSeed),
		Index:     results.NewTaskIndex(),
		Federation: &coordfed.Config{
			Origin:    n.origin,
			Peers:     peers,
			Transport: transport,
			Timeout:   2 * time.Second,
			Seed:      fedSeed,
		},
	})
	if err != nil {
		return err
	}
	n.coord, n.sched, n.fed = coord, coord.Scheduler, coord.Federation
	n.srv.Config.Handler = coord
	n.srv.Start()
	return nil
}

// newCoordCluster builds k fully-meshed coordinators. transportFor (optional)
// supplies each node's outbound transport — the fault injection point — and
// receives the node's index and its own listen host.
func newCoordCluster(seed uint64, k int, transportFor func(i int, host string) http.RoundTripper) ([]*coordNode, error) {
	nodes := make([]*coordNode, k)
	for i := range nodes {
		nodes[i] = listenCoordNode(fmt.Sprintf("c%d", i), nil)
	}
	for i, n := range nodes {
		var peers []string
		for j, p := range nodes {
			if j != i {
				peers = append(peers, "http://"+p.host)
			}
		}
		var transport http.RoundTripper
		if transportFor != nil {
			transport = transportFor(i, n.host)
		}
		if err := n.open(seed+uint64(i), peers, transport, seed^uint64(i+1)); err != nil {
			stopCoordCluster(nodes)
			return nil, err
		}
	}
	return nodes, nil
}

func stopCoordCluster(nodes []*coordNode) {
	for _, n := range nodes {
		if n != nil {
			n.stop()
		}
	}
}

// coordAssign drives one pick and enforces the never-blocks invariant.
func coordAssign(n *coordNode, region geo.CountryCode, at time.Time) error {
	client := scheduler.ClientInfo{Region: region, Browser: core.BrowserFirefox, ExpectedDwellSeconds: 5}
	if tasks := n.sched.Assign(client, at); len(tasks) == 0 {
		return fmt.Errorf("coordinator %s returned no tasks for a %s client: Assign blocked", n.origin, region)
	}
	return nil
}

// coordWarmUp is the coord scenarios' shared prologue: one assignment on the
// first node anchors the cluster's focus schedule at chaosStart, then every
// node serves picks clients from its own region.
func coordWarmUp(nodes []*coordNode, picks int) error {
	if err := coordAssign(nodes[0], "US", chaosStart); err != nil {
		return err
	}
	for i, n := range nodes {
		for p := 0; p < picks; p++ {
			if err := coordAssign(n, coordRegions[i], chaosStart.Add(time.Duration(p+1)*time.Millisecond)); err != nil {
				return err
			}
		}
	}
	return nil
}

// coordConverge steps the given number of full gossip rounds (every live node
// exchanges with every peer once per round).
func coordConverge(nodes []*coordNode, rounds int) {
	for r := 0; r < rounds; r++ {
		for _, n := range nodes {
			if n != nil && n.fed != nil {
				n.fed.RunRound(context.Background())
			}
		}
	}
}

// coordSettle steps rounds gossip rounds and then requires every node to
// hold the same global view.
func coordSettle(nodes []*coordNode, rounds int) error {
	coordConverge(nodes, rounds)
	return coordViewsAgree(nodes)
}

// coordViewsAgree verifies every node reports the identical global count for
// every (pattern, region) cell.
func coordViewsAgree(nodes []*coordNode) error {
	keys := nodes[0].sched.PatternKeys()
	for _, key := range keys {
		for _, region := range coordRegions {
			want := nodes[0].sched.GlobalAssignments(key, region)
			for _, n := range nodes[1:] {
				if got := n.sched.GlobalAssignments(key, region); got != want {
					return fmt.Errorf("divergent views: %s sees global[%s/%s]=%d, %s sees %d",
						n.origin, key, region, got, nodes[0].origin, want)
				}
			}
		}
	}
	return nil
}

// coordTotal sums one node's global view over every pattern and region.
func coordTotal(n *coordNode) int {
	total := 0
	for _, key := range n.sched.PatternKeys() {
		for _, region := range coordRegions {
			total += n.sched.GlobalAssignments(key, region)
		}
	}
	return total
}

// coordCheckBalance drives picks serialized picks in converged lockstep and
// verifies the global per-region spread over the image patterns stays <= 1.
func coordCheckBalance(nodes []*coordNode, at time.Time) error {
	for pick := 0; pick < 18; pick++ {
		n := nodes[pick%len(nodes)]
		region := coordRegions[pick%len(coordRegions)]
		if err := coordAssign(n, region, at); err != nil {
			return err
		}
		coordConverge(nodes, 1)
	}
	if err := coordViewsAgree(nodes); err != nil {
		return err
	}
	keys := nodes[0].sched.PatternKeys()
	for _, region := range coordRegions {
		min, max := -1, -1
		for _, key := range keys[1:] { // keys[0] is the script-only focus pattern
			c := nodes[0].sched.GlobalAssignments(key, region)
			if min == -1 || c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if max-min > 1 {
			return fmt.Errorf("global balance spread in %s is %d (min=%d max=%d), want <= 1", region, max-min, min, max)
		}
	}
	return nil
}

// coordCheckFocusSchedule verifies every node's focus rotation is
// bit-identical to a single-coordinator baseline anchored at the same first
// assignment.
func coordCheckFocusSchedule(nodes []*coordNode, anchor time.Time) error {
	for _, n := range nodes {
		if a := n.sched.Anchor(); a != anchor.UnixNano() {
			return fmt.Errorf("%s anchor %d, want the cluster minimum %d", n.origin, a, anchor.UnixNano())
		}
	}
	baseline := scheduler.New(coordTaskSet(), coordSchedulerConfig(424242))
	baseline.Assign(scheduler.ClientInfo{Region: "US", Browser: core.BrowserFirefox, ExpectedDwellSeconds: 5}, anchor)
	keys := baseline.PatternKeys()
	for i := 0; i < 3*len(keys); i++ {
		tm := anchor.Add(time.Duration(i)*coordWindow + coordWindow/2)
		want := baseline.FocusPattern(tm)
		for _, n := range nodes {
			if got := n.sched.FocusPattern(tm); got != want {
				return fmt.Errorf("%s focus schedule diverged from baseline at window %d: %q vs %q", n.origin, i, got, want)
			}
		}
	}
	return nil
}

// scenarioCoordPartitionHeal splits one coordinator away from the other two
// mid-campaign. The isolated node must keep assigning and report degraded
// (its quorum is gone); the majority side must not. After the partition
// heals, the cluster converges and the balance and schedule invariants hold.
func scenarioCoordPartitionHeal(ctx *chaosCtx) error {
	partition := faultinject.NewPartition()
	nodes, err := newCoordCluster(ctx.seed, 3, func(i int, host string) http.RoundTripper {
		return partition.Link(host, nil)
	})
	if err != nil {
		return err
	}
	defer stopCoordCluster(nodes)

	if err := coordWarmUp(nodes, 30); err != nil {
		return err
	}
	if err := coordSettle(nodes, 4); err != nil {
		return fmt.Errorf("pre-partition: %w", err)
	}

	// Partition: c0 alone vs {c1, c2}.
	partition.Isolate([]string{nodes[0].host}, []string{nodes[1].host, nodes[2].host})
	for i, n := range nodes {
		for p := 0; p < 15; p++ {
			if err := coordAssign(n, coordRegions[i], chaosStart.Add(time.Second)); err != nil {
				return fmt.Errorf("during partition: %w", err)
			}
		}
	}
	coordConverge(nodes, 4) // every c0 exchange fails; c1<->c2 keep converging
	if partition.Severed() == 0 {
		return fmt.Errorf("partition injected no faults: Link not on the gossip path")
	}
	if !nodes[0].fed.Degraded() {
		return fmt.Errorf("isolated coordinator did not report degraded with both peers unreachable")
	}
	if nodes[1].fed.Degraded() || nodes[2].fed.Degraded() {
		return fmt.Errorf("majority-side coordinator reported degraded while holding quorum")
	}

	// Heal and converge: the isolated side's counts flow back in.
	partition.Heal()
	if err := coordSettle(nodes, 6); err != nil {
		return fmt.Errorf("post-heal: %w", err)
	}
	if nodes[0].fed.Degraded() {
		return fmt.Errorf("coordinator still degraded after the partition healed")
	}
	if err := coordCheckBalance(nodes, chaosStart.Add(2*time.Second)); err != nil {
		return fmt.Errorf("post-heal: %w", err)
	}
	return coordCheckFocusSchedule(nodes, chaosStart)
}

// scenarioCoordCrashRestart kills one coordinator mid-campaign and restarts
// it on the same address with an empty scheduler under a fresh origin (the
// incarnation rule). The crashed node's pre-crash counts must survive at its
// peers and flow back to the replacement; nothing is lost and nobody blocks.
func scenarioCoordCrashRestart(ctx *chaosCtx) error {
	nodes, err := newCoordCluster(ctx.seed, 3, nil)
	if err != nil {
		return err
	}
	defer stopCoordCluster(nodes)

	if err := coordWarmUp(nodes, 30); err != nil {
		return err
	}
	if err := coordSettle(nodes, 4); err != nil {
		return fmt.Errorf("pre-crash: %w", err)
	}
	preCrashTotal := coordTotal(nodes[0])

	// Crash c1. The survivors keep assigning and mark the peer down without
	// going degraded (2 of 3 is still a quorum).
	crashedHost := nodes[1].host
	crashedPeers := []string{nodes[0].srv.URL, nodes[2].srv.URL}
	nodes[1].stop()
	nodes[1] = nil
	survivors := []*coordNode{nodes[0], nodes[2]}
	for i, n := range survivors {
		for p := 0; p < 12; p++ {
			if err := coordAssign(n, coordRegions[2*i], chaosStart.Add(time.Second)); err != nil {
				return fmt.Errorf("after crash: %w", err)
			}
		}
	}
	if err := coordSettle(survivors, 4); err != nil {
		return fmt.Errorf("survivors: %w", err)
	}
	if survivors[0].fed.Degraded() || survivors[1].fed.Degraded() {
		return fmt.Errorf("survivor reported degraded with 2 of 3 coordinators reachable")
	}
	downSeen := false
	for _, ph := range survivors[0].fed.PeerHealth(time.Now()) {
		if ph.State != coordfed.PeerAlive {
			downSeen = true
		}
	}
	if !downSeen {
		return fmt.Errorf("survivor never marked the crashed peer suspect/dead")
	}

	// Restart on the same address: fresh scheduler, NEW origin. The old
	// origin's counts merge back from the peers as remote state.
	ln, err := relistenCoord(crashedHost)
	if err != nil {
		return err
	}
	restarted := listenCoordNode("c1b", ln)
	nodes[1] = restarted // stopped with the cluster
	if err := restarted.open(ctx.seed+99, crashedPeers, nil, ctx.seed^0xbeef); err != nil {
		return err
	}

	for p := 0; p < 12; p++ {
		if err := coordAssign(restarted, coordRegions[1], chaosStart.Add(2*time.Second)); err != nil {
			return fmt.Errorf("after restart: %w", err)
		}
	}
	if err := coordSettle(nodes, 6); err != nil {
		return fmt.Errorf("post-restart: %w", err)
	}
	if got := coordTotal(restarted); got < preCrashTotal {
		return fmt.Errorf("restart lost coverage: replacement sees %d assignments, %d existed before the crash", got, preCrashTotal)
	}
	if err := coordCheckBalance(nodes, chaosStart.Add(3*time.Second)); err != nil {
		return fmt.Errorf("post-restart: %w", err)
	}
	return coordCheckFocusSchedule(nodes, chaosStart)
}

// relistenCoord rebinds a just-released loopback address, absorbing the OS
// briefly holding the port.
func relistenCoord(addr string) (net.Listener, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("rebinding crashed coordinator address %s: %w", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// scenarioCoordGossipStorm drives gossip through a lossy transport (30%
// connection resets plus a 5xx burst) and replays duplicated and stale
// frames directly at a handler. The CRDT merge must shrug all of it off:
// convergence despite the resets, byte-identical views after duplicate
// delivery, and no regression from stale state.
func scenarioCoordGossipStorm(ctx *chaosCtx) error {
	rts := make([]*faultinject.RoundTripper, 3)
	nodes, err := newCoordCluster(ctx.seed, 3, func(i int, host string) http.RoundTripper {
		rts[i] = faultinject.NewRoundTripper(nil, faultinject.NetFaults{
			Seed:      ctx.seed ^ uint64(i+1),
			ResetProb: 0.3,
		})
		return rts[i]
	})
	if err != nil {
		return err
	}
	defer stopCoordCluster(nodes)
	if err := coordWarmUp(nodes, 25); err != nil {
		return err
	}

	// A stale frame captured mid-campaign, replayed after convergence.
	staleState := nodes[0].sched.LocalCoverage()
	staleRegions := make([]wire.GossipRegion, len(staleState.Regions))
	for i, rc := range staleState.Regions {
		staleRegions[i] = wire.GossipRegion{Region: rc.Region, Counts: rc.Counts}
	}
	staleFrame := wire.AppendGossipFrame(nil, &wire.Gossip{
		From:         nodes[0].origin,
		Anchor:       nodes[0].sched.Anchor(),
		ScheduleHash: nodes[0].sched.ScheduleHash(),
		Deltas:       []wire.GossipDelta{{Origin: nodes[0].origin, Version: staleState.Version, Regions: staleRegions}},
	})

	// A 5xx burst on top of the resets, then enough rounds to converge
	// through the lossy transport.
	rts[0].FailNext(5, http.StatusServiceUnavailable, "")
	if err := coordSettle(nodes, 12); err != nil {
		return fmt.Errorf("storm prevented convergence: %w", err)
	}
	st := nodes[0].fed.Stats()
	if st.Failures == 0 {
		return fmt.Errorf("storm injected no exchange failures: faults not on the gossip path")
	}
	if st.MergedDeltas == 0 || st.Served == 0 {
		return fmt.Errorf("no gossip flowed despite convergence: stats %+v", st)
	}

	// Duplicate + stale delivery: replay the mid-campaign frame at c1 twice.
	// The G-counter max-merge must treat it as a no-op.
	before := coordTotal(nodes[1])
	for i := 0; i < 2; i++ {
		resp, err := http.Post(nodes[1].srv.URL+api.V2GossipPath, wire.ContentTypeGossip, bytes.NewReader(staleFrame))
		if err != nil {
			return fmt.Errorf("replaying stale frame: %w", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("stale frame replay rejected with %d, want 200 no-op merge", resp.StatusCode)
		}
	}
	if after := coordTotal(nodes[1]); after != before {
		return fmt.Errorf("stale gossip replay changed the coverage view: %d -> %d", before, after)
	}
	if err := coordViewsAgree(nodes); err != nil {
		return fmt.Errorf("after stale replay: %w", err)
	}
	return coordCheckFocusSchedule(nodes, chaosStart)
}
