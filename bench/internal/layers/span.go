// Package layers produces the per-layer metrics. It has two sources, both
// outside the program under test: a traced replay that drives the real SDK
// and the real handlers in one process with a span around every call into a
// layer, and a leaf ledger that times exported functions directly, in
// 256-operation chunks, on records made from the same generated inputs.
// Spans inside the program (internal/obs) are a later change.
package layers

import (
	"bufio"
	"io"
	"strconv"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer. Spans of one request share Request,
// the ID of the request's root span; Parent is the span whose call caused
// this one, or -1 for a root.
type Span struct {
	ID      int32
	Parent  int32
	Request int32
	Name    int32 // index into the tracer's name table
	Start   int64 // nanoseconds since the tracer was made
	End     int64
}

// Tracer records spans into a slice allocated up front, so recording one
// costs two clock reads and an atomic add, and writes them out only at the
// end. A nil Tracer records nothing: the replay's untraced warm-up runs with
// one.
type Tracer struct {
	base  time.Time
	spans []Span
	next  atomic.Int32
	// Dropped counts spans that did not fit.
	Dropped atomic.Int64
	names   []string
}

// NewTracer makes a tracer with room for capacity spans.
func NewTracer(capacity int) *Tracer {
	return &Tracer{base: time.Now(), spans: make([]Span, capacity)}
}

// Name interns a span name. Names are registered before spans are recorded.
func (t *Tracer) Name(name string) int32 {
	if t == nil {
		return 0
	}
	for i, n := range t.names {
		if n == name {
			return int32(i)
		}
	}
	t.names = append(t.names, name)
	return int32(len(t.names) - 1)
}

// Begin opens a span and returns its ID. parent is -1 for the root of a new
// request.
func (t *Tracer) Begin(name, parent int32) int32 {
	if t == nil {
		return -1
	}
	id := t.next.Add(1) - 1
	if int(id) >= len(t.spans) {
		t.Dropped.Add(1)
		return -1
	}
	request := id
	if parent >= 0 {
		request = t.spans[parent].Request
	}
	t.spans[id] = Span{ID: id, Parent: parent, Request: request, Name: name, Start: int64(time.Since(t.base))}
	return id
}

// End closes a span.
func (t *Tracer) End(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.base))
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span {
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// SelfTimes computes each span's self time: its duration minus the part of
// it its direct children cover. The result is indexed like spans. Children
// of one span run one after another on the caller's goroutine, so their
// durations add.
func SelfTimes(spans []Span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// LayerTotal is the time and the number of spans recorded under one name.
type LayerTotal struct {
	Name  string
	Self  int64 // nanoseconds, children excluded
	Total int64 // nanoseconds, children included
	Count int
}

// Totals sums self and total time per span name.
func (t *Tracer) Totals() []LayerTotal {
	spans := t.Spans()
	self := SelfTimes(spans)
	out := make([]LayerTotal, len(t.names))
	for i, n := range t.names {
		out[i].Name = n
	}
	for i, s := range spans {
		lt := &out[s.Name]
		lt.Self += self[i]
		lt.Total += s.End - s.Start
		lt.Count++
	}
	return out
}

// WriteJSONL writes the spans as one JSON object a line:
// {"id":..,"parent":..,"request":..,"name":"..","start_ns":..,"end_ns":..}.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var line []byte
	for _, s := range t.Spans() {
		line = append(line[:0], `{"id":`...)
		line = strconv.AppendInt(line, int64(s.ID), 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, int64(s.Parent), 10)
		line = append(line, `,"request":`...)
		line = strconv.AppendInt(line, int64(s.Request), 10)
		line = append(line, `,"name":`...)
		line = strconv.AppendQuote(line, t.names[s.Name])
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, s.Start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.End, 10)
		line = append(line, "}\n"...)
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}
