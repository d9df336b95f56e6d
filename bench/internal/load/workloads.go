package load

import (
	"fmt"

	"encore/bench/internal/serve"
)

// Spec is one workload: the topology it runs against, how load is offered,
// and why it exists. The names are fixed; later issues refer to them.
type Spec struct {
	Name string
	Why  string
	// Topology is the serve configuration, without the WAL directory the
	// harness allocates when WAL is set.
	Topology serve.Config
	WAL      bool

	// Open marks the open-loop page-view workload; the rest are closed loops
	// of callersPerCPU callers per core.
	Open bool
	// VisitsPerSecond is the open loop's total arrival rate.
	VisitsPerSecond float64

	// BlockSize is submissions per POST, Binary the SDK encoding, Window how
	// many of a caller's blocks sit between a measurement's init and its
	// terminal submission.
	BlockSize int
	Binary    bool
	Window    int
	// WarmBlocks is how many blocks the untimed warm-up sends, all callers
	// together; their manifest is registered as part of set-up.
	WarmBlocks int
	// MinCoresBusy is the closed loops' validity condition: the share of the
	// cores generator and child must keep busy while the callers have work
	// to offer. A run below it fails.
	MinCoresBusy float64

	// Recover adds the restart phase: SIGTERM, respawn on the same WAL
	// directory, wait for the full count, compare exports.
	Recover bool
	// PushBlocks makes this the drain workload: rounds of that many blocks,
	// each pushed in one go with the clock running until the forwarder has
	// delivered it, until Seconds of rounds have been timed. Zero means the
	// workload is measured in timed stretches instead. A round must overflow
	// the forwarder's buffer (1<<18 commits; a block of 256 IDs is 512 of
	// them, so 512 blocks fill it and a round is about twice that): outside
	// catch-up mode the forwarder ships one batch of 128 per flush interval
	// once commits stop arriving, 640 records a second, so a backlog that
	// never spilled takes minutes to drain.
	PushBlocks int
	// CheckpointBlocksPerSecond fixes, per second of run length, the store
	// size at which a sliced workload reads the child's live heap.
	CheckpointBlocksPerSecond float64
}

// minCoresBusy is what the closed loops are held to. The plan was 0.9, and
// that is where they run: 0.86 to 0.96 over a quiet and a busy hour of the
// reference box (batch_bin256_wal highest, the drain's push lowest), whether
// 8 or 16 callers per core offer the load. What is left idle is the wake-up
// of the other process at each hand-over of a request or a reply, a tenth of
// a 100 us request and less of a longer one: a cost of the system, not a
// generator with nothing to offer. A limit inside that range would fail
// valid runs; so would 0.8, which the first drain after a build read 0.78 of
// (the box had taken its memory back and ran the push at a third of its
// speed, a run the quartiles shed). The limit is 0.7: under it callers must
// have idled.
const minCoresBusy = 0.7

// Specs lists the four workloads in the order `run` executes them.
var Specs = []Spec{
	{
		Name: "pageview",
		Why: "open loop of browsers (Poisson, 800 visits/s): GET /v2/tasks, then init+terminal beacons; " +
			"coordinator, edge (WAL, JSON forwarder), upstream; per-request cost is the work; batching and wire idle",
		Topology:        serve.Config{Coordinator: true, Forward: serve.ForwardJSON},
		WAL:             true,
		Open:            true,
		VisitsPerSecond: 800,
	},
	{
		Name: "batch_json16",
		Why: "closed loop, SubmitBatch JSON 16/POST, one collector, WAL off: encoding/json and prepareRawSubmission x16 " +
			"dominate; bypasses wire, WAL, forwarder and scheduler",
		BlockSize:                 16,
		Window:                    64,
		WarmBlocks:                2048,
		MinCoresBusy:              minCoresBusy,
		CheckpointBlocksPerSecond: 2048,
	},
	{
		Name: "batch_bin256_wal",
		Why: "closed loop, binary 256/POST, one collector with WAL: per-request cost amortised 256x so wire decode, " +
			"AddBatch, aggregator and the WAL append are the work; then restart recovery and a full export",
		WAL:                       true,
		BlockSize:                 256,
		Binary:                    true,
		Window:                    8,
		WarmBlocks:                256,
		MinCoresBusy:              minCoresBusy,
		Recover:                   true,
		CheckpointBlocksPerSecond: 256,
	},
	{
		Name: "fed_drain",
		Why: "rounds of closed-loop binary pushes into an edge whose forwarder (binary, WAL tail) is the slowest hop: " +
			"overflow, spill, WAL-tail catch-up, cursor persistence; a round ends when the upstream has it",
		Topology:     serve.Config{Forward: serve.ForwardBinary},
		WAL:          true,
		BlockSize:    256,
		Binary:       true,
		Window:       8,
		WarmBlocks:   256,
		MinCoresBusy: minCoresBusy,
		PushBlocks:   1000,
	},
}

// SpecByName finds a workload.
func SpecByName(name string) (Spec, error) {
	for _, s := range Specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("load: unknown workload %q", name)
}
