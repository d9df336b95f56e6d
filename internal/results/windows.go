package results

import (
	"time"
)

// Window identifies one time bucket of a longitudinal analysis.
type Window struct {
	Start time.Time
	End   time.Time
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Time) bool {
	return !t.Before(w.Start) && t.Before(w.End)
}

// WindowedGroups is the aggregation of one time window.
type WindowedGroups struct {
	Window Window
	Groups []Group
}

// windowIndex maps a timestamp to its bucket on the window grid anchored at
// epoch, flooring so times before the epoch land on negative indices. Both
// the batch windowed aggregation and the incremental Aggregator use this one
// function, so the two tiers bucket identically. The timestamp must be within
// ±292 years of the epoch (the range of time.Duration).
func windowIndex(t, epoch time.Time, window time.Duration) int64 {
	d := t.Sub(epoch)
	idx := int64(d / window)
	if d%window < 0 {
		idx--
	}
	return idx
}

// AggregateWindowedAt buckets measurements into fixed-size time windows by
// their Received timestamps and aggregates each bucket by pattern and region;
// buckets cover [epoch+k·window, epoch+(k+1)·window). Measurements without a
// timestamp are ignored and control measurements are excluded, as in
// Aggregate. It aggregates in a single pass over ms — each measurement is
// folded straight into its bucket's group cell, with no intermediate
// per-bucket measurement slices. The returned windows are in chronological
// order and span the occupied range (empty interior windows included, so
// longitudinal plots have a continuous time axis).
// This is the batch counterpart of the incremental Aggregator's Windowed
// view: both bucket via the same grid function, so an Aggregator configured
// with the same window and epoch reproduces this output exactly.
func AggregateWindowedAt(ms []Measurement, window time.Duration, epoch time.Time) []WindowedGroups {
	if window <= 0 {
		return nil
	}
	type bucket struct {
		cells map[GroupKey]*Group
	}
	buckets := make(map[int64]*bucket)
	var minIdx, maxIdx int64
	seen := false
	for _, m := range ms {
		if m.Received.IsZero() || m.Control {
			continue
		}
		idx := windowIndex(m.Received, epoch, window)
		if !seen || idx < minIdx {
			minIdx = idx
		}
		if !seen || idx > maxIdx {
			maxIdx = idx
		}
		seen = true
		b, ok := buckets[idx]
		if !ok {
			b = &bucket{cells: make(map[GroupKey]*Group)}
			buckets[idx] = b
		}
		key := GroupKey{PatternKey: m.PatternKey, Region: m.Region}
		g, ok := b.cells[key]
		if !ok {
			g = &Group{Key: key}
			b.cells[key] = g
		}
		g.apply(m, 1)
	}
	if !seen {
		return nil
	}
	out := make([]WindowedGroups, 0, maxIdx-minIdx+1)
	for idx := minIdx; idx <= maxIdx; idx++ {
		start := epoch.Add(time.Duration(idx) * window)
		wg := WindowedGroups{Window: Window{Start: start, End: start.Add(window)}}
		if b, ok := buckets[idx]; ok {
			wg.Groups = make([]Group, 0, len(b.cells))
			for _, g := range b.cells {
				wg.Groups = append(wg.Groups, *g)
			}
			sortGroups(wg.Groups)
		}
		out = append(out, wg)
	}
	return out
}
