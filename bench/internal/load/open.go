package load

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"encore/internal/api"
	apiclient "encore/internal/api/client"

	"encore/bench/internal/gen"
)

// clock is the time source the open-loop pacer runs on; tests substitute a
// simulated one.
type clock interface {
	// Now is the time since the run started.
	Now() time.Duration
	// Until returns once the run is d old: at once when it already is.
	Until(d time.Duration)
}

// released is a visitor's clock in a real run: the timekeeper hands it one
// token per visit, in the order of the visitor's due times and never before
// a visit is due, so waiting for a visit's due time is taking its token.
type released struct {
	start  time.Time
	tokens <-chan struct{}
}

func (c released) Now() time.Duration  { return time.Since(c.start) }
func (c released) Until(time.Duration) { <-c.tokens }

// release starts the open loop's timekeeper and returns one token channel per
// visitor. time.Sleep wakes a goroutine of an otherwise idle process up to a
// millisecond late (the runtime's poller sleeps in whole milliseconds;
// measured here: median 0.56 ms, 99th percentile 1.1 ms), which is half a
// page view. A thread of its own in nanosleep(2) wakes within 0.08 ms
// (99th: 0.2 ms). So one locked thread walks every visitor's due times in
// order and gives the visitor whose visit is due a token. The channels hold a
// visitor's whole schedule, so the timekeeper never waits for a visitor that
// has fallen behind. When ctx ends the channels are closed and every wait
// returns at once.
func release(ctx context.Context, start time.Time, dues [][]time.Duration) []<-chan struct{} {
	type slot struct {
		due    time.Duration
		worker int
	}
	var order []slot
	tokens := make([]chan struct{}, len(dues))
	out := make([]<-chan struct{}, len(dues))
	for w, ds := range dues {
		tokens[w] = make(chan struct{}, len(ds))
		out[w] = tokens[w]
		for _, d := range ds {
			order = append(order, slot{d, w})
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].due < order[j].due })
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		defer func() {
			for _, ch := range tokens {
				close(ch)
			}
		}()
		for _, s := range order {
			// A signal ends nanosleep early, so sleep again until it is time.
			for rem := s.due - time.Since(start); rem > 0; rem = s.due - time.Since(start) {
				if ctx.Err() != nil {
					return
				}
				ts := syscall.NsecToTimespec(int64(rem))
				_ = syscall.Nanosleep(&ts, nil)
			}
			tokens[s.worker] <- struct{}{}
		}
	}()
	return out
}

// timing is one paced operation: when it was due, when it started, and when
// it ended.
type timing struct{ due, start, end time.Duration }

// lag is how late the operation started.
func (t timing) lag() time.Duration { return t.start - t.due }

// latency is the operation's duration as the user saw it: from the moment it
// was due, not from the moment the generator got round to it.
func (t timing) latency() time.Duration { return t.end - t.due }

// pace runs do(i) for each due time in order on one worker, never early. An
// operation whose turn comes after its due time (the previous one overran,
// or the wake-up did) starts at once and is still timed from its due time, so
// a stall is charged to every operation it delayed instead of vanishing from
// the record.
func pace(c clock, due []time.Duration, do func(i int)) []timing {
	out := make([]timing, len(due))
	for i, d := range due {
		c.Until(d)
		out[i].due, out[i].start = d, c.Now()
		do(i)
		out[i].end = c.Now()
	}
	return out
}

// visitor is one open-loop worker: a browser population's share of the
// page views, each a GET /v2/tasks at the coordinator followed by an init
// and a terminal beacon per task at the edge collector.
type visitor struct {
	coord  *apiclient.Client
	edge   *apiclient.Client
	truth  *gen.Truth
	visits []gen.Visit

	calls     int64
	attempted int64
	failed    int64
	records   []int32 // beacons accepted per visit
	tasks     int64
	sent      map[cell]*tally
	firstErr  error

	// acks, when set, receives the time of every accepted init beacon, for
	// the upstream-lag probe.
	acks *ackLog
}

func newVisitor(seed uint64, worker int, perSecond float64, n int, coordURL, edgeURL string, trips *atomic.Int64) *visitor {
	stream := gen.NewVisitStream(seed, worker, perSecond)
	v := &visitor{
		coord:   apiclient.NewWithConfig(coordURL, apiclient.Config{HTTPClient: newHTTPClient(trips)}),
		edge:    apiclient.NewWithConfig(edgeURL, apiclient.Config{HTTPClient: newHTTPClient(trips)}),
		truth:   stream.Truth(),
		visits:  make([]gen.Visit, n),
		records: make([]int32, n),
		sent:    make(map[cell]*tally),
	}
	for i := range v.visits {
		v.visits[i] = stream.Next()
	}
	return v
}

func (v *visitor) fail(n int64, err error) {
	v.failed += n
	if v.firstErr == nil {
		v.firstErr = err
	}
}

// visit performs page view i.
func (v *visitor) visit(ctx context.Context, i int) {
	pv := &v.visits[i]
	meta := &apiclient.ClientMeta{IP: pv.IP, UserAgent: pv.UserAgent}
	v.calls++
	v.attempted++
	resp, err := v.coord.Tasks(ctx, api.TaskRequest{DwellSeconds: pv.Dwell}, meta)
	if err != nil {
		v.fail(1, fmt.Errorf("Tasks: %w", err))
		return
	}
	for k, t := range resp.Tasks {
		v.tasks++
		v.calls += 2
		v.attempted += 2
		if err := v.edge.SubmitBeacon(ctx, t.MeasurementID, "init", 0, meta); err != nil {
			v.fail(2, fmt.Errorf("SubmitBeacon init: %w", err))
			continue
		}
		v.records[i]++
		if v.acks != nil {
			v.acks.add()
		}
		ok := v.truth.Success(pv.TaskDraw(k), t.PatternKey, pv.Region)
		state := gen.StateOf(ok)
		if err := v.edge.SubmitBeacon(ctx, t.MeasurementID, state, 120, meta); err != nil {
			v.fail(1, fmt.Errorf("SubmitBeacon %s: %w", state, err))
			continue
		}
		v.records[i]++
		c := cell{t.PatternKey, pv.Region}
		tl := v.sent[c]
		if tl == nil {
			tl = &tally{}
			v.sent[c] = tl
		}
		tl.completed++
		if ok {
			tl.successes++
		}
	}
}

// ackLog records when each init beacon was acknowledged by the edge, in
// acknowledgement order across workers.
type ackLog struct {
	start time.Time
	n     atomic.Int64
	at    []atomic.Int64 // nanoseconds since start; zero means not yet written
}

func newAckLog(start time.Time, capacity int) *ackLog {
	return &ackLog{start: start, at: make([]atomic.Int64, capacity)}
}

func (a *ackLog) add() {
	k := a.n.Add(1) - 1
	if int(k) < len(a.at) {
		a.at[k].Store(int64(time.Since(a.start)) + 1)
	}
}

// countSample is one reading of the upstream's measurement count.
type countSample struct {
	at    time.Duration
	count int
}

// pollUpstream samples the upstream's /v2/healthz measurement count every
// period until ctx ends.
func pollUpstream(ctx context.Context, upstream *apiclient.Client, start time.Time, period time.Duration) []countSample {
	var out []countSample
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return out
		case <-tick.C:
			h, err := upstream.Health(ctx)
			if err != nil {
				continue // a poll lost to shutdown; the next sample covers it
			}
			out = append(out, countSample{at: time.Since(start), count: h.Measurements})
		}
	}
}

// upstreamLags pairs each recorded init acknowledgement k with the first
// upstream sample that counted at least k measurements, and returns the gaps
// in milliseconds. Every init creates exactly one upstream measurement, so
// the k-th acknowledgement is visible upstream once the count reaches k.
func upstreamLags(acks *ackLog, samples []countSample) []float64 {
	n := int(acks.n.Load())
	if n > len(acks.at) {
		n = len(acks.at)
	}
	var out []float64
	j := 0
	for k := 0; k < n; k++ {
		at := acks.at[k].Load()
		if at == 0 {
			continue
		}
		for j < len(samples) && samples[j].count < k+1 {
			j++
		}
		if j == len(samples) {
			break
		}
		if lag := samples[j].at - time.Duration(at); lag > 0 {
			out = append(out, float64(lag)/1e6)
		}
	}
	return out
}
