// Package obs is the stdlib-only observability layer: a metrics registry
// (atomic counters, gauges, fixed-bucket histograms with labeled
// families), Prometheus text-format exposition, expvar publication, Go
// runtime gauges (RuntimeCollector), the host fingerprint perf runs and
// captures record (ReadHost), and the JSON wire helpers every safesense
// HTTP handler shares (DecodeStrict, BodyStatus, WriteJSON, WriteError).
// Phase timing is not here: the simulator's phaseTracker (internal/sim)
// owns it, and spans live in internal/obs/trace.
//
// The hot path is lock-free: resolving a labeled child with With() is a
// sync.Map read, and Inc/Add/Observe are atomic operations, so callers
// that cache the child pay only a few nanoseconds per event (pinned by
// BenchmarkObsCounter / BenchmarkObsHistogram).
//
// A process-wide Default() registry carries the safesense_* families the
// simulator, the campaign engine, and safesensed register at init; it is
// also published to expvar under "safesense_metrics" so /debug/vars shows
// the same numbers.
package obs

import (
	"context"
	"expvar"
	"log/slog"
	"sync"
)

// DefBuckets spans 100µs .. 10s, suiting both per-request latencies and
// per-run phase totals.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide registry, published to expvar on first
// use.
func Default() *Registry {
	defaultOnce.Do(func() {
		defaultReg = NewRegistry()
		defaultReg.PublishExpvar("safesense_metrics")
	})
	return defaultReg
}

// PublishExpvar exposes the registry's snapshot as an expvar variable (it
// shows up in /debug/vars). Publishing the same name twice is a no-op.
func (r *Registry) PublishExpvar(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// DiscardHandler is a no-op slog.Handler, the default logger of every
// component whose Log option is nil (slog.DiscardHandler arrives in
// go1.24; this keeps the floor at the module's current toolchain).
type DiscardHandler struct{}

func (DiscardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (DiscardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d DiscardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d DiscardHandler) WithGroup(string) slog.Handler           { return d }
