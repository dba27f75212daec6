package profile

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"runtime/pprof"
	"time"

	"safesense/internal/obs"
)

// Continuous-profiler defaults: a 10s window every 60s keeps steady
// attribution at ~17% sampling duty cycle for ~1% CPU overhead.
const (
	DefaultProfileInterval = 60 * time.Second
	DefaultProfileWindow   = 10 * time.Second
)

// OtherPhase is the gauge bucket for CPU outside the whitelisted
// phases: unlabeled samples (runtime, GC, HTTP serving) plus any
// unexpected label values — kept aggregated so the gauge's label
// cardinality stays fixed.
const OtherPhase = "other"

// ProfilerOptions configures the background profiler.
type ProfilerOptions struct {
	// Interval is the time between capture-window starts (zero means
	// DefaultProfileInterval).
	Interval time.Duration
	// Window is how long each capture runs (zero means
	// DefaultProfileWindow; clamped to Interval).
	Window time.Duration
	// Store receives the captures (required).
	Store *Store
	// Log receives profiler lifecycle records (nil discards).
	Log *slog.Logger
	// Phases whitelists the phase label values published as
	// safesense_profile_phase_cpu_share gauges; everything else folds
	// into the OtherPhase bucket. Typically sim.PhaseNames().
	Phases []string
}

// Profiler periodically opens a CPU-profile window, reads the
// capture's phase shares, stores it, and republishes the per-phase
// CPU-share gauges.
type Profiler struct {
	opts ProfilerOptions
}

// NewProfiler builds a profiler, applying option defaults.
func NewProfiler(opts ProfilerOptions) *Profiler {
	if opts.Interval <= 0 {
		opts.Interval = DefaultProfileInterval
	}
	if opts.Window <= 0 {
		opts.Window = DefaultProfileWindow
	}
	if opts.Window > opts.Interval {
		opts.Window = opts.Interval
	}
	if opts.Log == nil {
		opts.Log = slog.New(obs.DiscardHandler{})
	}
	return &Profiler{opts: opts}
}

// Run captures until ctx is canceled, then returns ctx.Err(). Phase
// labeling is enabled for the profiler's lifetime (reference-counted,
// so overlapping consumers compose). A window that fails to start —
// e.g. another CPU profile is already active — is logged, counted, and
// retried next interval rather than treated as fatal.
func (p *Profiler) Run(ctx context.Context) error {
	if p.opts.Store == nil {
		return errors.New("profile: Profiler requires a Store")
	}
	Enable()
	defer Disable()
	p.opts.Log.Info("continuous profiler running",
		"interval", p.opts.Interval.String(), "window", p.opts.Window.String())
	for {
		took := p.captureOnce(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !sleepCtx(ctx, p.opts.Interval-took) {
			return ctx.Err()
		}
	}
}

// captureOnce opens one window and ingests the capture, returning how
// much of the interval it consumed.
func (p *Profiler) captureOnce(ctx context.Context) time.Duration {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		// Another profile owns the CPU profiler (perf capture, test run);
		// skip this window.
		metricCaptureErrors.With().Inc()
		p.opts.Log.Warn("profile window skipped", "error", err.Error())
		return 0
	}
	sleepCtx(ctx, p.opts.Window)
	pprof.StopCPUProfile()
	p.ingest(buf.Bytes())
	return p.opts.Window
}

// ingest reads, stores, and publishes one capture.
func (p *Profiler) ingest(raw []byte) {
	sh, err := ReadShares(raw)
	if err != nil {
		metricCaptureErrors.With().Inc()
		p.opts.Log.Error("profile capture unreadable", "error", err.Error())
		return
	}
	meta, fresh := p.opts.Store.Put(raw, "cpu", p.opts.Window.Nanoseconds(), sh)
	p.publishShares(sh)
	p.opts.Log.Debug("profile capture stored",
		"id", meta.ID, "bytes", meta.Bytes, "samples", sh.TotalSamples, "fresh", fresh)
}

// publishShares refreshes the phase-share gauges from one capture:
// every whitelisted phase is set (zeroing phases that took no samples
// this window) and the remainder folds into OtherPhase. A whitelisted
// phase named OtherPhase (the simulator's own remainder phase) is part
// of that remainder, not a second writer of its gauge.
func (p *Profiler) publishShares(sh *Shares) {
	var accounted float64
	for _, phase := range p.opts.Phases {
		if phase == OtherPhase {
			continue
		}
		share := sh.PhaseShare(phase)
		accounted += share
		metricPhaseCPUShare.With(phase).Set(share)
	}
	rest := 1 - accounted
	if sh.Total == 0 || rest < 0 {
		rest = 0
	}
	other := OtherPhase
	metricPhaseCPUShare.With(other).Set(rest)
}

// sleepCtx waits d (false when ctx was canceled first — the profiler's
// only exit path, keeping the goroutine leak-provable).
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
