// Package trace is the stdlib-only tracing half of the observability
// layer: randomly-generated trace and span IDs with parent linkage,
// context propagation helpers, and a bounded in-memory ring-buffer store
// that records every trace. It deliberately mirrors the shape (not the
// wire format) of W3C/OTel tracing — a trace is the tree of spans
// sharing one trace ID — while staying small enough to audit in one
// sitting.
//
// The package also integrates with runtime/trace: when the Go execution
// tracer is running (`safesensed -pprof-addr` + /debug/pprof/trace, or a
// test's -trace flag), every root span opens a runtime/trace Task and
// every child span opens a Region, so `go tool trace` shows campaign
// jobs and simulation runs natively in its user-defined-tasks view.
//
// Spans are single-goroutine objects (start, annotate, and end one span
// on the same goroutine); the store they flush into is safe for
// concurrent use. A span started without a parent in its context is
// inert: every method is a no-op, so library code can instrument
// unconditionally and pay nothing when nobody is tracing.
package trace

import (
	"context"
	"math/rand/v2"
	rt "runtime/trace"
	"strconv"
	"sync"
	"time"
)

// clock and randUint64 are the package's injected nondeterminism
// seams: trace timing and IDs are observability metadata, never
// analysis input, and routing them through package-level vars keeps
// the transitive determinism lint exact about where wall time and
// global randomness enter — callers in the scenario pipeline inherit
// no taint from instrumenting. Tests freeze them for stable output.
var (
	clock      = time.Now
	randUint64 = rand.Uint64
)

// NewTraceID returns a fresh 16-hex-digit trace ID.
func NewTraceID() string { return formatID(randUint64()) }

// NewSpanID returns a fresh 16-hex-digit span ID.
func NewSpanID() string { return formatID(randUint64()) }

// formatID renders a non-zero 64-bit ID as fixed-width hex.
func formatID(v uint64) string {
	if v == 0 {
		v = 1
	}
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRecord is a completed span as kept by the Store and rendered by
// the /debug/traces endpoint.
type SpanRecord struct {
	TraceID         string    `json:"trace_id"`
	SpanID          string    `json:"span_id"`
	ParentID        string    `json:"parent_id,omitempty"`
	Name            string    `json:"name"`
	Start           time.Time `json:"start"`
	DurationSeconds float64   `json:"duration_seconds"`
	Attrs           []Attr    `json:"attrs,omitempty"`
}

// Span is one in-flight region of work. The zero value (and any span
// started without a traced parent) is inert.
type Span struct {
	store  *Store
	rec    SpanRecord
	start  time.Time
	task   *rt.Task
	region *rt.Region
	ended  bool
}

// active reports whether the span does anything at all.
func (s *Span) active() bool {
	return s != nil && (s.rec.TraceID != "" || s.task != nil || s.region != nil)
}

// TraceID returns the span's trace ID ("" for an inert span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.rec.TraceID
}

// Sampled reports whether the span will be kept by the store on End:
// every span but the inert nil one is.
func (s *Span) Sampled() bool { return s != nil }

// SetAttr annotates the span. Inert spans ignore the call.
func (s *Span) SetAttr(key, value string) {
	if !s.active() || s.ended {
		return
	}
	s.rec.Attrs = append(s.rec.Attrs, Attr{Key: key, Value: value})
}

// SetAttrInt annotates the span with an integer value. Inert spans skip
// the formatting too.
func (s *Span) SetAttrInt(key string, value int64) {
	if s.active() && !s.ended {
		s.SetAttr(key, strconv.FormatInt(value, 10))
	}
}

// End closes the span, flushes it into its store, and returns the
// elapsed wall time. Ending an inert or already-ended span returns 0.
func (s *Span) End() time.Duration {
	if !s.active() || s.ended {
		return 0
	}
	s.ended = true
	d := clock().Sub(s.start)
	if s.region != nil {
		s.region.End()
	}
	if s.task != nil {
		s.task.End()
	}
	if s.store != nil {
		s.rec.DurationSeconds = d.Seconds()
		s.store.add(s.rec)
	}
	return d
}

// ctxKey carries the current span through a context.
type ctxKey struct{}

// FromContext returns the current span, or nil when the context is
// untraced.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// ID returns the trace ID carried by the context ("" when untraced).
// This is what log records and error responses should attach.
func ID(ctx context.Context) string { return FromContext(ctx).TraceID() }

// StartSpan opens a child of the context's current span. Without a
// traced parent the returned span is inert and the context is returned
// unchanged, so instrumented code costs nothing when nobody traces it.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil || !parent.active() {
		return ctx, nil
	}
	s := &Span{
		store: parent.store,
		start: clock(),
		rec: SpanRecord{
			TraceID:  parent.rec.TraceID,
			SpanID:   NewSpanID(),
			ParentID: parent.rec.SpanID,
			Name:     name,
			Start:    clock(),
		},
	}
	if rt.IsEnabled() {
		s.region = rt.StartRegion(ctx, name)
	}
	return context.WithValue(ctx, ctxKey{}, s), s
}

// Store is a bounded ring buffer of completed spans. When full, the
// oldest span is evicted. All methods are safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	capacity int
	// buf is the ring, allocated at full capacity by the first add, so
	// a store that never records (or a process still starting up) does
	// not pay for it. It never grows after that.
	buf     []SpanRecord
	head    int    // next write index
	n       int    // filled entries
	written uint64 // spans ever added: the Mark/Since clock
}

// DefaultCapacity bounds the default store: at ~4 spans per request or
// campaign job this holds on the order of the last thousand operations.
const DefaultCapacity = 4096

// NewStore returns a store keeping at most capacity completed spans
// (capacity < 1 means DefaultCapacity). The ring is allocated on the
// first add.
func NewStore(capacity int) *Store {
	if capacity < 1 {
		capacity = DefaultCapacity
	}
	return &Store{capacity: capacity}
}

var defaultStore = sync.OnceValue(func() *Store { return NewStore(DefaultCapacity) })

// Default returns the process-wide store (what safesensed serves at
// /debug/traces).
func Default() *Store { return defaultStore() }

// Root opens a new trace rooted at this store. traceID may be supplied
// by the caller (e.g. an inbound X-Request-ID header); empty means a
// fresh random ID. The root span carries its trace ID so logs can
// reference it. When the Go execution tracer is running, the root also
// opens a runtime/trace Task named name.
func (st *Store) Root(ctx context.Context, name, traceID string) (context.Context, *Span) {
	if traceID == "" {
		traceID = NewTraceID()
	}
	s := &Span{
		store: st,
		start: clock(),
		rec: SpanRecord{
			TraceID: traceID,
			SpanID:  NewSpanID(),
			Name:    name,
			Start:   clock(),
		},
	}
	if rt.IsEnabled() {
		ctx, s.task = rt.NewTask(ctx, name)
	}
	return context.WithValue(ctx, ctxKey{}, s), s
}

// add appends a completed span, evicting the oldest when full.
func (st *Store) add(rec SpanRecord) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.addLocked(rec)
}

func (st *Store) addLocked(rec SpanRecord) {
	if st.buf == nil {
		st.buf = make([]SpanRecord, st.capacity)
	}
	st.buf[st.head] = rec
	st.head = (st.head + 1) % len(st.buf)
	if st.n < len(st.buf) {
		st.n++
	}
	st.written++
}

// Stats is the store's loss accounting: evicted spans were recorded but
// overwritten by newer ones, cumulative since process start.
type Stats struct {
	Spans        int    `json:"spans"`
	Capacity     int    `json:"capacity"`
	EvictedSpans uint64 `json:"evicted_spans"`
}

// Stats returns the store's current size and cumulative loss counter.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	// Each add past capacity overwrote one resident span.
	return Stats{Spans: st.n, Capacity: st.capacity, EvictedSpans: st.written - uint64(st.n)}
}

// Import merges externally-recorded spans — e.g. a dist worker's span
// batch shipped with its lease completion — into the store, so a
// coordinator can stitch worker-side spans under the campaign trace it
// started. Spans already present (same trace ID and span ID) are
// skipped, making redelivered batches idempotent; spans missing either
// ID are rejected. Returns how many spans were added. It indexes the
// batch, not the ring: one pass over the residents, no ring-sized map.
func (st *Store) Import(recs []SpanRecord) int {
	if len(recs) == 0 {
		return 0
	}
	// fresh[key] is true while the span still needs adding: false once
	// it is found resident or added from earlier in the batch.
	fresh := make(map[[2]string]bool, len(recs))
	for _, rec := range recs {
		if rec.TraceID != "" && rec.SpanID != "" {
			fresh[[2]string{rec.TraceID, rec.SpanID}] = true
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := range st.buf[:st.n] {
		if key := [2]string{st.buf[i].TraceID, st.buf[i].SpanID}; fresh[key] {
			fresh[key] = false
		}
	}
	added := 0
	for _, rec := range recs {
		if key := [2]string{rec.TraceID, rec.SpanID}; fresh[key] {
			fresh[key] = false
			st.addLocked(rec)
			added++
		}
	}
	return added
}

// Records returns the stored spans, oldest first.
func (st *Store) Records() []SpanRecord {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]SpanRecord, 0, st.n)
	for i := st.head - st.n; i < st.head; i++ {
		out = append(out, st.buf[(i+len(st.buf))%len(st.buf)])
	}
	return out
}

// Mark returns the store's write clock: how many spans it has ever
// added. Hand it to Since to read back only what was added after it.
func (st *Store) Mark() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.written
}

// Since returns the stored spans of one trace added after mark (a value
// from Mark), oldest first. It walks only the slots written since mark,
// so its cost follows what was added, not the ring's size; spans
// already evicted by wraparound are gone (nil when none remain).
func (st *Store) Since(traceID string, mark uint64) []SpanRecord {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []SpanRecord
	// Slots written after mark that are still resident (none when mark
	// is ahead of the clock).
	fresh := int(min(st.written-min(mark, st.written), uint64(st.n)))
	for i := st.head - fresh; i < st.head; i++ {
		if rec := &st.buf[(i+len(st.buf))%len(st.buf)]; rec.TraceID == traceID {
			out = append(out, *rec)
		}
	}
	return out
}

// Trace returns the stored spans of one trace, oldest first (nil when
// the trace is unknown or fully evicted).
func (st *Store) Trace(traceID string) []SpanRecord { return st.Since(traceID, 0) }

// TraceSummary is one trace as listed by Summaries.
type TraceSummary struct {
	TraceID string    `json:"trace_id"`
	Root    string    `json:"root"`
	Spans   int       `json:"spans"`
	Start   time.Time `json:"start"`
}

// Summaries lists the stored traces, oldest first: trace ID, the name
// of its earliest stored span, and the span count.
func (st *Store) Summaries() []TraceSummary {
	recs := st.Records()
	index := make(map[string]int, len(recs))
	var out []TraceSummary
	for _, rec := range recs {
		i, ok := index[rec.TraceID]
		if !ok {
			index[rec.TraceID] = len(out)
			out = append(out, TraceSummary{
				TraceID: rec.TraceID, Root: rec.Name, Spans: 1, Start: rec.Start,
			})
			continue
		}
		out[i].Spans++
		// Prefer the outermost stored span as the trace's display name:
		// spans flush inner-first, so any span that started earlier and
		// is a parent candidate wins.
		if rec.Start.Before(out[i].Start) || rec.ParentID == "" {
			out[i].Root = rec.Name
			if rec.Start.Before(out[i].Start) {
				out[i].Start = rec.Start
			}
		}
	}
	return out
}
