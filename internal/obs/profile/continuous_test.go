package profile

import (
	"context"
	"testing"
	"time"
)

func TestProfilerRequiresStore(t *testing.T) {
	if err := NewProfiler(ProfilerOptions{}).Run(context.Background()); err == nil {
		t.Fatal("Run accepted a nil store")
	}
}

func TestProfilerOptionDefaults(t *testing.T) {
	p := NewProfiler(ProfilerOptions{})
	if p.opts.Interval != DefaultProfileInterval || p.opts.Window != DefaultProfileWindow {
		t.Fatalf("defaults = %+v", p.opts)
	}
	clamped := NewProfiler(ProfilerOptions{Interval: time.Second, Window: time.Minute})
	if clamped.opts.Window != time.Second {
		t.Fatalf("window %v not clamped to interval", clamped.opts.Window)
	}
}

// TestProfilerCapturesAndTerminates is the shutdown guarantee the
// safesensed drain path relies on (run under -race via make race-hot):
// the profiler goroutine captures into the store, then exits promptly
// when its context is canceled, releasing the labels refcount.
func TestProfilerCapturesAndTerminates(t *testing.T) {
	store := NewStore(StoreOptions{})
	p := NewProfiler(ProfilerOptions{
		Interval: 40 * time.Millisecond,
		Window:   20 * time.Millisecond,
		Store:    store,
		Phases:   []string{"radar_synthesis", "beat_extraction"},
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx) }()

	// Wait for at least one capture; the first window opens immediately.
	deadline := 200
	for store.Len() == 0 && deadline > 0 {
		time.Sleep(10 * time.Millisecond)
		deadline--
	}
	if store.Len() == 0 {
		t.Fatal("no capture landed before the deadline")
	}
	if !Enabled() {
		t.Fatal("phase labels not enabled while the profiler runs")
	}

	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if Enabled() {
		t.Fatal("profiler exit leaked the labels refcount")
	}

	// Stored capture carries provenance stamps and its phase shares.
	list := store.List()
	meta := list[0]
	if meta.Kind != "cpu" || meta.Bytes == 0 {
		t.Fatalf("capture meta = %+v", meta)
	}
	if meta.Host.OS == "" || meta.Host.CPUs == 0 {
		t.Fatalf("missing host fingerprint: %+v", meta.Host)
	}
	if meta.Shares == nil {
		t.Fatal("capture stored without its shares")
	}
	if meta.WindowNanos != (20 * time.Millisecond).Nanoseconds() {
		t.Fatalf("window = %d", meta.WindowNanos)
	}
}

// TestPublishSharesFoldsOtherPhase: a whitelist that names the "other"
// phase must not have its labeled share overwrite the remainder bucket;
// the gauge reports labeled other plus unlabeled samples.
func TestPublishSharesFoldsOtherPhase(t *testing.T) {
	p := NewProfiler(ProfilerOptions{Phases: []string{"radar_synthesis", OtherPhase}})
	p.publishShares(&Shares{Total: 10, Phases: []LabelShare{
		{Value: "radar_synthesis", Share: 0.5},
		{Value: OtherPhase, Share: 0.3},
		{Value: Unlabeled, Share: 0.2},
	}})
	if got := metricPhaseCPUShare.With("radar_synthesis").Value(); got != 0.5 {
		t.Errorf("radar_synthesis share = %v, want 0.5", got)
	}
	if got := metricPhaseCPUShare.With(OtherPhase).Value(); got != 0.5 {
		t.Errorf("other share = %v, want 0.5 (labeled other + unlabeled)", got)
	}
}
