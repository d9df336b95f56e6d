// Command encore-collector runs Encore's collection server (§5.5) as one
// durable node (internal/node): submissions commit to a store whose every
// commit is logged in -wal-dir, and a restart replays that log. Exports are
// GET /v2/measurements, encore-analyze -wal and encore-analyze -url. A
// standalone collector's task index starts empty (-accept-any registers
// unknown IDs); encore-sim wires coordinator and collector around one index.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"time"

	apiclient "encore/internal/api/client"
	"encore/internal/api/federation"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/node"
	"encore/internal/results"
)

func main() {
	var (
		addr      = flag.String("addr", ":8081", "listen address")
		seed      = flag.Uint64("seed", 1, "seed for the synthetic GeoIP registry")
		openTasks = flag.Bool("accept-any", false, "register unknown measurement IDs on the fly instead of rejecting them (useful for manual testing with curl)")

		forwardTo     = flag.String("forward-to", "", "base URL of an upstream aggregation-tier collector; this instance becomes a federation edge and ships its WAL there in batched POST /v2/submissions calls")
		forwardFlush  = flag.Duration("forward-flush", 200*time.Millisecond, "how often commits short of a batch are forwarded upstream (the floor of a dynamic window the upstream's load signal can widen)")
		forwardToken  = flag.String("forward-token", "", "bearer token presented to the upstream's attributed lane (set when the upstream runs with -attributed-token)")
		forwardCursor = flag.String("forward-cursor", "", "path of the forwarder's durable acked-cursor file (default: forward-cursor.json inside -wal-dir), rewritten at most once per -forward-flush and at shutdown, so a crash re-sends at most one interval's acknowledgements")
		allowAttr     = flag.Bool("allow-attributed", false, "accept pre-attributed measurement batches on /v2/submissions (run this on the aggregation-tier instance edge collectors forward to; it bypasses task attribution and the rate guard, so never expose it to untrusted clients)")
		attrToken     = flag.String("attributed-token", "", "shared-secret bearer token the attributed lane requires; batches without it are rejected with the typed 403 (requires -allow-attributed)")

		walDir  = flag.String("wal-dir", "", "directory of the durable write-ahead log (required); the store is recovered from it on startup")
		walSync = flag.String("wal-sync", "interval", "WAL fsync policy: always (no loss), interval (bounded loss), none (OS decides)")
	)
	flag.Parse()
	if *walDir == "" {
		log.Fatal("-wal-dir is required: the collector's store lives in its write-ahead log")
	}
	if *attrToken != "" && !*allowAttr {
		log.Fatal("-attributed-token requires -allow-attributed")
	}
	policy, err := results.ParseSyncPolicy(*walSync)
	if err != nil {
		log.Fatal(err)
	}
	cfg := node.Config{
		Index: results.NewTaskIndex(),
		Geo:   geo.NewRegistry(*seed),
		WAL:   &results.WALConfig{Dir: *walDir, Policy: policy},
	}
	if *forwardTo != "" {
		cfg.Forward = &federation.ForwarderConfig{
			Client:        apiclient.NewWithConfig(*forwardTo, apiclient.Config{AuthToken: *forwardToken}),
			FlushInterval: *forwardFlush,
			CursorPath:    *forwardCursor,
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	n, err := node.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if st := n.Recovered; st.Records > 0 || st.TornSegments > 0 {
		log.Printf("recovered %d measurements from %d WAL segments (%d torn tails dropped)",
			n.Server.Store.Len(), st.Segments, st.TornSegments)
	}
	n.Server.AllowAttributed = *allowAttr
	n.Server.AttributedToken = *attrToken
	if n.Forwarder != nil {
		log.Printf("federation edge: forwarding the WAL to %s (flush %v, cursor at position %d)",
			*forwardTo, *forwardFlush, n.Forwarder.Stats().AckedCursor)
	}
	var handler http.Handler = n.Server
	if *openTasks {
		handler = acceptAny(n.Server, cfg.Index)
	}

	log.Printf("collection server listening on %s", ln.Addr())
	if err := n.Serve(context.Background(), ln, handler); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if n.Forwarder != nil {
		st := n.Forwarder.Stats()
		log.Printf("federation: forwarded %d measurements in %d batches (%d rejected, cursor %d, %d left in the WAL)",
			st.Forwarded, st.Batches, st.Rejected, st.AckedCursor, st.Lag)
	}
}

// acceptAny registers unknown measurement IDs before delegating to the
// collection server, so ad-hoc curl submissions are stored rather than
// rejected.
func acceptAny(next http.Handler, index *results.TaskIndex) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if id := r.URL.Query().Get("cmh-id"); id != "" {
			if _, known := index.Lookup(id); !known {
				index.Register(core.Task{MeasurementID: id, Type: core.TaskImage,
					TargetURL: "http://unknown.example/", PatternKey: "adhoc:" + id})
			}
		}
		next.ServeHTTP(w, r)
	}
}
