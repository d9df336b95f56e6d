package federation

// What a forwarder reports: its counters, its lag behind the upstream, and the
// records the upstream permanently rejected.

import (
	"cmp"
	"maps"
	"slices"
	"time"

	"encore/internal/api"
	"encore/internal/results"
)

// DeadLetter is one record the upstream permanently rejected. The forwarder
// acknowledges it (the ordered stream moves on — one poison record must not
// wedge forwarding forever) and parks it here instead of re-sending it.
type DeadLetter struct {
	Measurement results.Measurement
	Code        string
	Message     string
	cseq        uint64 // commit-stream position: the ring keeps the highest
}

// ForwarderStats reports a forwarder's lifetime counters.
type ForwarderStats struct {
	// Observed counts commits received from the store.
	Observed uint64
	// Forwarded counts records the upstream accepted.
	Forwarded uint64
	// Rejected counts records the upstream refused individually; they are
	// dead-lettered, not re-sent. RejectedByCode breaks them down by typed
	// error code.
	Rejected       uint64
	RejectedByCode map[string]uint64
	// Deprecated: always 0; the WAL keeps every record. Kept because bench/internal/serve reads it; it goes with the
	// benchmark change ROADMAP.md lists for it.
	Dropped uint64
	// Deprecated: reads Lag; nothing spills, the WAL is the only queue. Kept because bench/internal/serve reads it; it goes with the
	// benchmark change ROADMAP.md lists for it.
	Spilled uint64
	// Batches counts successful upstream POSTs.
	Batches uint64
	// Deprecated: reads Lag, the records past the cursor. Kept because bench/internal/serve reads it; it goes with the
	// benchmark change ROADMAP.md lists for it.
	Pending int
	// Lag is the highest commit-stream position seen minus AckedCursor: how
	// many records the upstream has yet to acknowledge.
	Lag uint64
	// AckedCursor is the highest contiguously acknowledged commit-stream
	// position.
	AckedCursor uint64
	// Deprecated: reads Lag > 0; there is no catch-up mode. Kept because bench/internal/serve reads it; it goes with the
	// benchmark change ROADMAP.md lists for it.
	CatchingUp bool
	// FlushInterval is the current (possibly widened) flush window.
	FlushInterval time.Duration
	// LastError is the most recent upstream failure, nil after a success.
	LastError error
}

// recordBatchOutcome folds one successful POST's response into the stats and
// the dead-letter ring, which keeps the DeadLetterLimit highest commit
// positions in position order. A rejected frame is decoded only then.
func (f *Forwarder) recordBatchOutcome(resp *api.BatchSubmitResponse, b *tailBatch) {
	n := len(b.cseqs)
	f.statsMu.Lock()
	f.lastErr = nil
	f.batches++
	f.forwarded += uint64(resp.Accepted)
	f.rejected += uint64(len(resp.Rejected))
	var rejSummary map[string]int
	if len(resp.Rejected) > 0 {
		rejSummary = make(map[string]int)
		if f.rejectedByCode == nil {
			f.rejectedByCode = make(map[string]uint64)
		}
		for _, rej := range resp.Rejected {
			f.rejectedByCode[rej.Code]++
			rejSummary[rej.Code]++
			dl := DeadLetter{Code: rej.Code, Message: rej.Message}
			if rej.Index >= 0 && rej.Index < n {
				dl.Measurement, dl.cseq = b.measurementAt(rej.Index), b.cseqs[rej.Index]
			}
			f.deadLetters = append(f.deadLetters, dl)
		}
		slices.SortStableFunc(f.deadLetters, func(a, b DeadLetter) int { return cmp.Compare(a.cseq, b.cseq) })
		if over := len(f.deadLetters) - f.cfg.DeadLetterLimit; over > 0 {
			f.deadLetters = append(f.deadLetters[:0], f.deadLetters[over:]...)
		}
	}
	f.statsMu.Unlock()
	if rejSummary != nil {
		f.logf("federation: upstream rejected %d of %d records (by code: %v); dead-lettered, not re-sent",
			len(resp.Rejected), n, rejSummary)
	}
}

// DeadLetters returns a copy of the most recent permanently rejected
// records (bounded by ForwarderConfig.DeadLetterLimit), oldest first.
func (f *Forwarder) DeadLetters() []DeadLetter {
	f.statsMu.Lock()
	defer f.statsMu.Unlock()
	out := make([]DeadLetter, len(f.deadLetters))
	copy(out, f.deadLetters)
	return out
}

// Lag and DeadLetterCount are the health-probe accessors collectserver's
// /v2/healthz reads through its structural ForwarderHealth interface
// (methods returning builtins keep collectserver from importing this
// package). Lag is the highest commit position seen minus the acknowledged
// cursor: the records the upstream has yet to acknowledge.
func (f *Forwarder) Lag() uint64 {
	acked := f.ackedCursor.Load() // first: committed only grows, and is >= it
	return f.committed.Load() - acked
}

// DeadLetterCount returns the current size of the dead-letter ring.
func (f *Forwarder) DeadLetterCount() int {
	f.statsMu.Lock()
	defer f.statsMu.Unlock()
	return len(f.deadLetters)
}

// Stats returns the forwarder's lifetime counters.
func (f *Forwarder) Stats() ForwarderStats {
	f.statsMu.Lock()
	st := ForwarderStats{
		Forwarded:      f.forwarded,
		Rejected:       f.rejected,
		RejectedByCode: maps.Clone(f.rejectedByCode),
		Batches:        f.batches,
		LastError:      f.lastErr,
	}
	f.statsMu.Unlock()
	st.Observed = f.observed.Load()
	st.AckedCursor = f.ackedCursor.Load()
	st.Lag = f.committed.Load() - st.AckedCursor
	st.Pending, st.Spilled, st.CatchingUp = int(st.Lag), st.Lag, st.Lag > 0
	st.FlushInterval = f.curInterval()
	return st
}
