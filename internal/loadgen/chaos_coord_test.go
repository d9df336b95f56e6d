package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"encore/internal/coordfed"
	"encore/internal/coordserver"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/results"
	"encore/internal/scheduler"
)

// TestCoordinatorLifecycle opens two federated coordinators through
// coordserver.Open, serves them with Serve on real loopback listeners until
// their gossip loops have carried each one's coverage to the other, then
// cancels Serve and checks that no goroutine outlives them (the chaos
// suite's baseline and slack).
func TestCoordinatorLifecycle(t *testing.T) {
	baseline := runtime.NumGoroutine()
	regions := []geo.CountryCode{"US", "PK"}
	lns := make([]net.Listener, len(regions))
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
	}
	coords := make([]*coordserver.Server, len(regions))
	for i := range coords {
		coord, err := coordserver.Open(coordserver.Config{
			Tasks:     coordTaskSet(),
			Scheduler: coordSchedulerConfig(uint64(i) + 1),
			Index:     results.NewTaskIndex(),
			Federation: &coordfed.Config{
				Origin:   fmt.Sprintf("c%d", i),
				Peers:    []string{"http://" + lns[1-i].Addr().String()},
				Interval: 10 * time.Millisecond,
				Seed:     uint64(i) + 1,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		coords[i] = coord
	}

	// One local assignment each before serving; gossip must bring every
	// coordinator's view to the sum of both.
	total := func(s *scheduler.Scheduler) int {
		n := 0
		for _, key := range s.PatternKeys() {
			for _, region := range regions {
				n += s.GlobalAssignments(key, region)
			}
		}
		return n
	}
	want := 0
	for i, coord := range coords {
		coord.Scheduler.Assign(scheduler.ClientInfo{Region: regions[i], Browser: core.BrowserFirefox, ExpectedDwellSeconds: 5}, chaosStart)
		want += total(coord.Scheduler)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, len(coords))
	for i, coord := range coords {
		go func(coord *coordserver.Server, ln net.Listener) { served <- coord.Serve(ctx, ln) }(coord, lns[i])
	}
	deadline := time.Now().Add(10 * time.Second)
	for total(coords[0].Scheduler) != want || total(coords[1].Scheduler) != want {
		if time.Now().After(deadline) {
			t.Fatalf("gossip did not converge: views %d and %d, want %d",
				total(coords[0].Scheduler), total(coords[1].Scheduler), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	for range coords {
		if err := <-served; err != nil {
			t.Fatalf("Serve after cancel = %v, want nil", err)
		}
	}
	coords[0].Close() // Close after Serve has closed is a no-op
	stacks := make([]byte, 1<<20)
	if n := runtime.Stack(stacks, true); bytes.Contains(stacks[:n], []byte("(*Federation).probeLoop")) {
		t.Fatalf("a gossip loop outlived Serve:\n%s", stacks[:n])
	}
	if err := awaitGoroutineBaseline(baseline); err != nil {
		t.Fatal(err)
	}
}
