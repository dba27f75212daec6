// Package perf is the stdlib-only performance-observability layer: a
// registry of named perf scenarios, a repetition-based runner that
// captures ns/op, allocs/op, bytes/op, and runtime/metrics GC/heap
// readings per repetition, a schema-versioned BENCH_*.json run document
// so the repo accumulates a perf trajectory across PRs, and a
// benchstat-style comparator (Mann-Whitney U test, Cliff's delta) that
// backs the `safesense-perf check` regression gate.
//
// The package deliberately depends only on the standard library and
// internal/obs (for the runtime/metrics snapshot), so the simulator and
// campaign packages can be exercised by the suite without an import
// cycle: concrete scenarios live in internal/perf/suite.
package perf

import "safesense/internal/obs"

// SchemaVersion identifies the BENCH_*.json document layout. Bump it on
// any incompatible change; readers reject versions they do not know.
const SchemaVersion = 1

// Config records the runner parameters a document was captured with.
type Config struct {
	// Reps is how many measured repetitions each scenario ran.
	Reps int `json:"reps"`
	// Warmup is how many unmeasured repetitions preceded them.
	Warmup int `json:"warmup"`
	// MinRepMillis is the per-repetition time floor the runner
	// calibrated its inner loop against.
	MinRepMillis int `json:"min_rep_millis"`
}

// Run is one serialized perf capture: everything `safesense-perf run`
// writes into a BENCH_<n>.json file.
type Run struct {
	SchemaVersion int      `json:"schema_version"`
	CreatedAt     string   `json:"created_at,omitempty"` // RFC 3339, wall clock
	VCSRevision   string   `json:"vcs_revision,omitempty"`
	Host          obs.Host `json:"host"`
	Config        Config   `json:"config"`

	Scenarios []ScenarioResult `json:"scenarios"`
}

// ScenarioResult holds one scenario's per-repetition sample arrays.
// Every array has Config.Reps entries, aligned by repetition index.
type ScenarioResult struct {
	Name  string `json:"name"`
	Group string `json:"group"`
	// Ops is how many logical operations one body call performs; the
	// per-op sample arrays are already divided by it.
	Ops int `json:"ops"`

	NsPerOp     []float64 `json:"ns_per_op"`
	AllocsPerOp []float64 `json:"allocs_per_op"`
	BytesPerOp  []float64 `json:"bytes_per_op"`

	// Extra carries named per-repetition series beyond the core three:
	// runtime/metrics readings (heap_bytes, goroutines, gc_cycles_delta,
	// gc_pause_delta_seconds) plus whatever the scenario body observed
	// (obs phase timings, runs_per_sec, deterministic check values).
	Extra map[string][]float64 `json:"extra,omitempty"`
}

// Samples returns the named sample array: one of the core metrics or an
// Extra series; nil when absent.
func (s *ScenarioResult) Samples(metric string) []float64 {
	switch metric {
	case MetricNsPerOp:
		return s.NsPerOp
	case MetricAllocsPerOp:
		return s.AllocsPerOp
	case MetricBytesPerOp:
		return s.BytesPerOp
	}
	return s.Extra[metric]
}

// Core metric names.
const (
	MetricNsPerOp     = "ns_per_op"
	MetricAllocsPerOp = "allocs_per_op"
	MetricBytesPerOp  = "bytes_per_op"
)

// Runtime-reading Extra series names the runner populates on every
// scenario.
const (
	ExtraHeapBytes      = "heap_bytes"
	ExtraGoroutines     = "goroutines"
	ExtraGCCyclesDelta  = "gc_cycles_delta"
	ExtraGCPauseSeconds = "gc_pause_delta_seconds"
)
