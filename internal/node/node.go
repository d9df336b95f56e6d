// Package node builds one collection node (§5.5) and owns its lifecycle:
// Open is the only code that knows the order a collector is wired in, and
// Close and Serve the only code that knows the order it comes down in.
package node

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"encore/internal/api/federation"
	"encore/internal/collectserver"
	"encore/internal/geo"
	"encore/internal/results"
)

const (
	// maintainEvery is how often Serve syncs the WAL and prunes the abuse
	// guard's rate buckets (one per client IP ever seen, otherwise).
	maintainEvery = time.Minute
	// compactEvery is how often Serve compacts the WAL. Appends to a shard
	// stall while it compacts, so this stays much coarser than maintainEvery.
	compactEvery = 10 * time.Minute
	// shutdownGrace bounds how long Serve waits for in-flight requests.
	shutdownGrace = 5 * time.Second
)

// Config names what a node is built from.
type Config struct {
	// Index attributes submissions (required); the coordinator registering
	// tasks shares it in a single-process deployment.
	Index *results.TaskIndex
	// Geo geolocates submitting addresses (required).
	Geo *geo.Registry
	// Aggregator configures the incremental analysis tier every node keeps.
	Aggregator results.AggregatorConfig
	// WAL, when set, makes the node durable: its store is recovered from
	// WAL.Dir (through WAL.FS) and every commit is logged there. Nil keeps
	// the node in memory and starts nothing.
	WAL *results.WALConfig
	// Forward, when set, makes the node a federation edge shipping its WAL
	// upstream; its WAL field is filled in by Open. It requires WAL.
	Forward *federation.ForwarderConfig
}

// Node is one wired collector. Configure Server's request-handling fields
// (Guard, AllowAttributed, AttributedToken, ...) after Open and before
// traffic starts.
type Node struct {
	Server     *collectserver.Server
	Aggregator *results.Aggregator
	// WAL and Forwarder are nil unless configured.
	WAL       *results.WAL
	Forwarder *federation.Forwarder
	// Recovered is what Open replayed from the WAL.
	Recovered results.WALRecoveryStats

	closeOnce sync.Once
	closeErr  error
}

// Open builds a node. It recovers the store from cfg.WAL first, so commit
// positions resume after the log's instead of being issued twice, then
// builds the collectserver.Server and attaches the Aggregator (backfilled
// from what recovery found), the WAL and the forwarder, in that order: a
// commit is in the log by the time the forwarder counts it.
func Open(cfg Config) (*Node, error) {
	if cfg.Forward != nil && cfg.WAL == nil {
		return nil, errors.New("node: Config.Forward requires Config.WAL: the forwarder ships from the log")
	}
	n := &Node{Aggregator: results.NewAggregator(cfg.Aggregator)}
	var store *results.Store
	if cfg.WAL == nil {
		store = results.NewStore()
	} else {
		if cfg.WAL.Dir == "" {
			return nil, errors.New("node: Config.WAL.Dir is required")
		}
		var err error
		if store, n.Recovered, err = results.OpenStoreFromWALFS(cfg.WAL.Dir, cfg.WAL.FS); err != nil {
			return nil, fmt.Errorf("node: recovering the store from %s: %w", cfg.WAL.Dir, err)
		}
		if store.Len() > 0 {
			n.Aggregator.Backfill(store)
		}
	}
	n.Server = collectserver.New(store, cfg.Index, cfg.Geo)
	n.Server.AttachAggregator(n.Aggregator)
	if cfg.WAL == nil {
		return n, nil
	}
	wal, err := results.OpenWAL(*cfg.WAL)
	if err != nil {
		return nil, fmt.Errorf("node: opening the WAL: %w", err)
	}
	n.WAL = wal
	n.Server.AttachWAL(wal)
	if cfg.Forward != nil {
		fc := *cfg.Forward
		fc.WAL = wal
		fwd, err := federation.NewForwarder(fc)
		if err != nil {
			_ = wal.Close()
			return nil, fmt.Errorf("node: starting the forwarder: %w", err)
		}
		n.Forwarder = fwd
		n.Server.Forwarder = fwd
		store.AddObserver(fwd)
	}
	return n, nil
}

// Close shuts the write path down: the server's Close drains the forwarder
// and syncs the WAL, then the WAL is closed. Safe to call more than once; a
// later call returns the first one's error.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		n.closeErr = n.Server.Close()
		if n.WAL != nil {
			if err := n.WAL.Close(); n.closeErr == nil {
				n.closeErr = err
			}
		}
	})
	return n.closeErr
}

// Serve answers HTTP on ln with h (nil means the node's Server) until ctx is
// cancelled or ln fails, syncing the WAL and pruning the guard every minute
// and compacting the WAL every ten. It shuts HTTP down before it closes the
// node, so every submission acknowledged over HTTP has committed, and
// reached the forwarder, before the log is closed.
func (n *Node) Serve(ctx context.Context, ln net.Listener, h http.Handler) error {
	if h == nil {
		h = n.Server
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	maintain := time.NewTicker(maintainEvery)
	defer maintain.Stop()
	compact := time.NewTicker(compactEvery)
	defer compact.Stop()
	for {
		select {
		case <-maintain.C:
			if n.WAL != nil {
				if err := n.WAL.Sync(); err != nil {
					log.Printf("WAL: %v", err)
				}
			}
			if n.Server.Guard != nil {
				n.Server.Guard.Prune(time.Now())
			}
		case <-compact.C:
			// Retention keeps every record the forwarder has yet to ship,
			// and its tail re-positions after a compaction.
			if n.WAL == nil {
				continue
			}
			if err := n.WAL.Compact(); err != nil {
				log.Printf("WAL compaction: %v", err)
			} else {
				st := n.WAL.Stats()
				log.Printf("WAL: %d records, %d segments on disk after compaction", st.Records, st.Segments)
			}
		case err := <-served:
			return errors.Join(err, n.Close())
		case <-ctx.Done():
			shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
			defer cancel()
			return errors.Join(srv.Shutdown(shutdownCtx), n.Close())
		}
	}
}
