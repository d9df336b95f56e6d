// Command encore-collector runs Encore's collection server (§5.5): it accepts
// measurement submissions at /submit, geolocates and stores them, and can
// persist the measurement store two ways — periodic JSON-lines checkpoints
// for later analysis with encore-analyze, and (with -wal-dir) a segmented
// write-ahead log that makes the store durable across crashes: on startup the
// collector replays the log and resumes with the exact store it had when it
// died, torn tail dropped.
//
// Because submissions are attributed through the task index that the
// coordination server populates, a standalone collector accepts any
// measurement ID it has seen registered via its -import flag or records
// arriving through the shared in-process deployment (encore-sim). For
// demonstration deployments, run encore-sim instead, which wires both servers
// together.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	apiclient "encore/internal/api/client"
	"encore/internal/api/federation"
	"encore/internal/collectserver"
	"encore/internal/core"
	"encore/internal/durable"
	"encore/internal/faultinject"
	"encore/internal/geo"
	"encore/internal/results"
)

func main() {
	var (
		addr       = flag.String("addr", ":8081", "listen address")
		outPath    = flag.String("out", "measurements.jsonl", "path to write measurements to on exit and every checkpoint interval")
		checkpoint = flag.Duration("checkpoint", time.Minute, "how often to write the measurement store to disk")
		seed       = flag.Uint64("seed", 1, "seed for the synthetic GeoIP registry")
		openTasks  = flag.Bool("accept-any", false, "register unknown measurement IDs on the fly instead of rejecting them (useful for manual testing with curl)")

		forwardTo     = flag.String("forward-to", "", "base URL of an upstream aggregation-tier collector; this instance becomes a federation edge and ships its WAL there in batched POST /v2/submissions calls (requires -wal-dir)")
		forwardBatch  = flag.Int("forward-batch", 128, "measurements per federation batch")
		forwardFlush  = flag.Duration("forward-flush", 200*time.Millisecond, "how often commits short of a batch are forwarded upstream (the floor of a dynamic window the upstream's load signal can widen)")
		forwardToken  = flag.String("forward-token", "", "bearer token presented to the upstream's attributed lane (set when the upstream runs with -attributed-token)")
		forwardCursor = flag.String("forward-cursor", "", "path of the forwarder's durable acked-cursor file (default: forward-cursor.json inside -wal-dir), rewritten at most once per -forward-flush and at shutdown, so a crash re-sends at most one interval's acknowledgements")
		allowAttr     = flag.Bool("allow-attributed", false, "accept pre-attributed measurement batches on /v2/submissions (run this on the aggregation-tier instance edge collectors forward to; it bypasses task attribution and the abuse guard, so never expose it to untrusted clients)")
		attrToken     = flag.String("attributed-token", "", "shared-secret bearer token the attributed lane requires; batches without it are rejected with the typed 403 (requires -allow-attributed)")

		walDir     = flag.String("wal-dir", "", "directory for the durable write-ahead log; empty disables persistence beyond JSONL checkpoints")
		walSync    = flag.String("wal-sync", "interval", "WAL fsync policy: always (no loss), interval (bounded loss), none (OS decides)")
		walEvery   = flag.Duration("wal-sync-interval", 200*time.Millisecond, "flush period for the interval/none policies")
		walSegment = flag.Int64("wal-segment-bytes", 16<<20, "segment rotation threshold")
		walCompact = flag.Duration("wal-compact-interval", 10*time.Minute, "how often to compact the WAL (drops records superseded by in-place upgrades; appends to a shard stall while it compacts, so keep this much coarser than -checkpoint); 0 disables")
	)
	flag.Parse()
	if *forwardTo != "" && *walDir == "" {
		log.Fatal("-forward-to requires -wal-dir: the forwarder ships from the write-ahead log")
	}

	// With a WAL configured, boot by replaying it: a restarted collector
	// resumes with the exact store the crashed one had committed.
	var (
		store *results.Store
		wal   *results.WAL
	)
	if *walDir != "" {
		policy, err := results.ParseSyncPolicy(*walSync)
		if err != nil {
			log.Fatal(err)
		}
		recovered, stats, err := results.OpenStoreFromWAL(*walDir)
		if err != nil {
			log.Fatalf("recovering store from WAL: %v", err)
		}
		if stats.Records > 0 || stats.TornSegments > 0 {
			log.Printf("recovered %d measurements from %d WAL segments (%d torn tails dropped)",
				recovered.Len(), stats.Segments, stats.TornSegments)
		}
		store = recovered
		wal, err = results.OpenWAL(results.WALConfig{
			Dir:          *walDir,
			Policy:       policy,
			Interval:     *walEvery,
			SegmentBytes: *walSegment,
		})
		if err != nil {
			log.Fatalf("opening WAL: %v", err)
		}
	} else {
		store = results.NewStore()
	}

	index := results.NewTaskIndex()
	g := geo.NewRegistry(*seed)
	server := collectserver.New(store, index, g)
	server.AllowAttributed = *allowAttr
	server.AttributedToken = *attrToken
	if *attrToken != "" && !*allowAttr {
		log.Fatal("-attributed-token requires -allow-attributed")
	}
	if wal != nil {
		// Attach the WAL before the forwarder so a commit is durable by the
		// time the forwarder can ship it.
		server.AttachWAL(wal)
	}

	// Federation edge: ship the WAL (including what a previous run committed
	// but never got acknowledged) to the upstream aggregation tier over the v2
	// batch API. The forwarder persists its acked cursor beside the WAL and
	// resumes from it on startup.
	var forwarder *federation.Forwarder
	if *forwardTo != "" {
		var err error
		forwarder, err = federation.NewForwarder(federation.ForwarderConfig{
			Client:        apiclient.NewWithConfig(*forwardTo, apiclient.Config{AuthToken: *forwardToken}),
			MaxBatch:      *forwardBatch,
			FlushInterval: *forwardFlush,
			WAL:           wal,
			CursorPath:    *forwardCursor,
		})
		if err != nil {
			log.Fatalf("starting federation forwarder: %v", err)
		}
		store.AddObserver(forwarder)
		server.Forwarder = forwarder
		log.Printf("federation edge: forwarding the WAL to %s (batch %d, flush %v, cursor at position %d)",
			*forwardTo, *forwardBatch, *forwardFlush, forwarder.Stats().AckedCursor)
	}

	var handler http.Handler = server
	if *openTasks {
		handler = acceptAny{server: server, index: index}
	}

	srv := &http.Server{Addr: *addr, Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		log.Printf("collection server listening on %s", *addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("collector: %v", err)
		}
	}()

	ticker := time.NewTicker(*checkpoint)
	defer ticker.Stop()
	var compactC <-chan time.Time
	if wal != nil && *walCompact > 0 {
		compactTicker := time.NewTicker(*walCompact)
		defer compactTicker.Stop()
		compactC = compactTicker.C
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for {
		select {
		case <-ticker.C:
			writeStore(store, *outPath)
			if wal != nil {
				if err := wal.Sync(); err != nil {
					log.Printf("WAL: %v", err)
				}
			}
			// Without this a long-running collector keeps one rate bucket
			// per client IP it has ever seen.
			if server.Guard != nil {
				server.Guard.Prune(time.Now())
			}
		case <-compactC:
			// Retention keeps every record the forwarder has yet to ship,
			// and its tail re-positions after a compaction.
			if err := wal.Compact(); err != nil {
				log.Printf("WAL compaction: %v", err)
			} else {
				st := wal.Stats()
				log.Printf("WAL: %d records, %d segments on disk after compaction", st.Records, st.Segments)
			}
		case <-ctx.Done():
			// Orderly shutdown, in dependency order: stop accepting HTTP
			// submissions first (in-flight handlers finish against the still-
			// open write path, so every acknowledged submission has committed
			// and reached the forwarder); then server.Close runs the
			// crash-consistent sequence — flush the forwarder to its acked
			// cursor, fsync the WAL; then checkpoint, and only then close the
			// log. Reordering any pair can acknowledge-and-drop a late
			// submission or strand the forwarder's in-flight batch.
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(shutdownCtx)
			if err := server.Close(); err != nil {
				log.Printf("shutdown: %v", err)
			}
			if forwarder != nil {
				st := forwarder.Stats()
				log.Printf("federation: forwarded %d measurements in %d batches (%d rejected, cursor %d, %d left in the WAL)",
					st.Forwarded, st.Batches, st.Rejected, st.AckedCursor, st.Lag)
			}
			writeStore(store, *outPath)
			if wal != nil {
				if err := wal.Close(); err != nil {
					log.Printf("closing WAL: %v", err)
				}
			}
			return
		}
	}
}

// acceptAny registers unknown measurement IDs before delegating to the
// collection server, so ad-hoc curl submissions are stored rather than
// rejected.
type acceptAny struct {
	server *collectserver.Server
	index  *results.TaskIndex
}

func (a acceptAny) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("cmh-id"); id != "" {
		if _, known := a.index.Lookup(id); !known {
			a.index.Register(core.Task{
				MeasurementID: id,
				Type:          core.TaskImage,
				TargetURL:     "http://unknown.example/",
				PatternKey:    "adhoc:" + id,
			})
		}
	}
	a.server.ServeHTTP(w, r)
}

// writeStore checkpoints the store to path atomically, so a crash mid-write
// leaves the previous good checkpoint intact.
func writeStore(store *results.Store, path string) {
	if err := durable.ReplaceFile(faultinject.OS(), path, store.WriteJSONL); err != nil {
		log.Printf("checkpoint write: %v", err)
		return
	}
	log.Printf("checkpointed %d measurements to %s", store.Len(), path)
}
