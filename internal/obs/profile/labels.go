// Package profile is the continuous-profiling plane: pprof goroutine
// labels that attribute CPU samples to pipeline phases and campaign
// jobs, a stdlib-only reader that splits a gzip+protobuf pprof capture
// across the phase label (ReadShares), a bounded content-addressed
// capture store, and the background profiler safesensed runs between
// requests. Everything else about a capture — function tables, diffs,
// other labels — is `go tool pprof`'s job on the raw bytes.
//
// The package deliberately does not import internal/sim, which imports
// it, so the label helpers and the reader stay leaf dependencies.
package profile

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
)

// Label keys attached to CPU samples. LabelPhase carries the
// internal/sim phase names; LabelCampaign/LabelJob identify the
// campaign worker that ran the sample.
const (
	LabelPhase    = "phase"
	LabelCampaign = "campaign"
	LabelJob      = "job"
)

// Unlabeled is the Shares bucket for samples with no phase label:
// runtime internals, GC, and any code outside the instrumented phases.
const Unlabeled = "(unlabeled)"

// enabled counts the label consumers currently active (the continuous
// profiler, safesim -profile-dir). Labeling costs one
// atomic load per phase transition when off, so the simulator checks
// Enabled once per run and skips label plumbing entirely at zero.
var enabled atomic.Int64

// Enable turns phase/job labeling on (reference-counted).
func Enable() { enabled.Add(1) }

// Disable releases one Enable.
func Disable() { enabled.Add(-1) }

// Enabled reports whether any profile consumer wants labeled samples.
func Enabled() bool { return enabled.Load() > 0 }

// PhaseLabels carries prebuilt label contexts for a fixed phase set, so
// entering a phase inside a step loop is one slice index plus one
// runtime label-pointer swap — no per-step context or map allocation.
// A nil *PhaseLabels is valid and inert, letting call sites write
// pl.Set(i) unconditionally.
type PhaseLabels struct {
	base   context.Context
	phases []context.Context
}

// NewPhaseLabels prebuilds one labeled context per phase name on top of
// ctx (whose own labels — e.g. campaign/job from DoJob — are merged by
// the runtime, so a sample can carry phase and job at once).
func NewPhaseLabels(ctx context.Context, phases ...string) *PhaseLabels {
	pl := &PhaseLabels{base: ctx, phases: make([]context.Context, len(phases))}
	for i, name := range phases {
		pl.phases[i] = pprof.WithLabels(ctx, pprof.Labels(LabelPhase, name))
	}
	return pl
}

// Set attributes subsequent CPU samples on this goroutine to phase i
// (the index into the NewPhaseLabels argument order).
//
//safesense:hotpath
func (pl *PhaseLabels) Set(i int) {
	if pl == nil {
		return
	}
	pprof.SetGoroutineLabels(pl.phases[i])
}

// Unset restores the base context's labels.
//
//safesense:hotpath
func (pl *PhaseLabels) Unset() {
	if pl == nil {
		return
	}
	pprof.SetGoroutineLabels(pl.base)
}

// DoJob runs f with campaign/job labels attached to the goroutine for
// its duration (restoring the previous labels after), so every CPU
// sample inside a campaign job is attributable to the sweep and grid
// index that ran it.
func DoJob(ctx context.Context, campaign string, job int, f func(context.Context)) {
	pprof.Do(ctx, pprof.Labels(
		LabelCampaign, campaign,
		LabelJob, strconv.Itoa(job),
	), f)
}
