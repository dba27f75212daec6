package obs

import (
	"testing"
	"time"
)

// Zero-allocation guards for every //safesense:hotpath function in this
// package: the hotpathalloc analyzer forbids the static allocation
// patterns (fmt, capturing closures, interface boxing); these tests pin
// the dynamic behavior with testing.AllocsPerRun so a regression that
// slips past the analyzer (map growth, slice append, hidden boxing in a
// callee) still fails the build.

func allocAssert(t *testing.T, name string, want float64, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(200, f); avg != want {
		t.Errorf("%s: %v allocs/op, want %v", name, avg, want)
	}
}

func TestCounterHotPathZeroAlloc(t *testing.T) {
	c := NewRegistry().Counter("alloc_test_counter_total", "").With()
	allocAssert(t, "Counter.Inc", 0, func() { c.Inc() })
	allocAssert(t, "Counter.Add", 0, func() { c.Add(2.5) })
}

func TestGaugeHotPathZeroAlloc(t *testing.T) {
	g := NewRegistry().Gauge("alloc_test_gauge", "").With()
	allocAssert(t, "Gauge.Set", 0, func() { g.Set(42) })
	// Gauge.Add exercises the addFloat CAS loop.
	allocAssert(t, "Gauge.Add", 0, func() { g.Add(0.5) })
}

func TestHistogramHotPathZeroAlloc(t *testing.T) {
	h := NewRegistry().Histogram("alloc_test_seconds", "", DefBuckets).With()
	allocAssert(t, "Histogram.Observe", 0, func() { h.Observe(0.017) })
	allocAssert(t, "Histogram.ObserveDuration", 0, func() { h.ObserveDuration(17 * time.Millisecond) })
	// An exemplar-free observation takes the zero-alloc path; attaching a
	// trace ID stores one Exemplar, which is the documented single
	// allocation — pin it so it cannot silently grow.
	allocAssert(t, "Histogram.ObserveExemplar(no trace)", 0, func() { h.ObserveExemplar(0.017, "") })
	allocAssert(t, "Histogram.ObserveExemplar(traced)", 1, func() { h.ObserveExemplar(0.017, "trace-1") })
}

func TestLabeledFastPathZeroAlloc(t *testing.T) {
	// The labeled With() lookup may allocate; the returned child must
	// not. Callers on per-step paths hold the child.
	v := NewRegistry().Counter("alloc_test_labeled_total", "", "phase")
	c := v.With("cra_check")
	allocAssert(t, "labeled Counter.Inc", 0, func() { c.Inc() })
}
