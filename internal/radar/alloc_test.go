package radar

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"safesense/internal/noise"
	"safesense/internal/prbs"
)

// Zero-allocation guards for the //safesense:hotpath signal-level step:
// the hotpathalloc analyzer forbids the static allocation patterns; these
// tests enforce the same contract dynamically, after one warm-up call.

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f() // warm-up
	if avg := testing.AllocsPerRun(200, f); avg != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, avg)
	}
}

func TestObserveSweepZeroAlloc(t *testing.T) {
	sfe := newSFE(t, prbs.NewFixedSchedule(5), FFTExtractor{}, 1)
	assertZeroAllocs(t, "ObserveSweep target", func() { sfe.ObserveSweep(4, 100, -1.5) })
	assertZeroAllocs(t, "ObserveSweep challenge", func() { sfe.ObserveSweep(5, 100, -1.5) })
	assertZeroAllocs(t, "ObserveSweep out of range", func() { sfe.ObserveSweep(4, 1e4, 0) })
}

// TestMeasureFFTZeroAlloc: at each segment length, once the first
// Measure has built the length's FFT plan, extraction allocates
// nothing — and the plan is shared, so a second front end of the same
// length allocates nothing from its very first Measure.
func TestMeasureFFTZeroAlloc(t *testing.T) {
	for _, n := range []int{64, 128, 256} {
		var fes [2]*SignalFrontEnd
		for i := range fes {
			fe, err := NewSignalFrontEnd(BoschLRR2(), prbs.NewFixedSchedule(), FFTExtractor{}, n, noise.NewSource(2))
			if err != nil {
				t.Fatal(err)
			}
			fes[i] = fe
		}
		s, challenge := fes[0].ObserveSweep(3, 100, -1.5)
		if s.Power() <= fes[0].ZeroThreshold() {
			t.Fatal("target sweep below the quiet threshold: Measure would skip extraction")
		}
		name := fmt.Sprintf("Measure (FFT, %d samples)", n)
		assertZeroAllocs(t, name, func() { fes[0].Measure(3, s, challenge) })
		if got := mallocs(func() { fes[1].Measure(3, s, challenge) }); got != 0 {
			t.Errorf("%s: second front end's first call made %d allocations, want 0 (plan rebuilt?)", name, got)
		}
	}
}

// mallocs counts the heap allocations of one call of f, without the
// warm-up call testing.AllocsPerRun makes.
func mallocs(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSweepTransformsZeroAlloc: once a Tone's table is built (the
// warm-up call), mixing and adding it allocate nothing.
func TestSweepTransformsZeroAlloc(t *testing.T) {
	sfe := newSFE(t, prbs.NewFixedSchedule(), FFTExtractor{}, 3)
	s, _ := sfe.ObserveSweep(1, 100, -1.5)
	shift, tone := NewTone(1e3), NewTone(1e4)
	assertZeroAllocs(t, "AddNoiseSweep", func() { AddNoiseSweep(s, 1e-12, sfe.src) })
	assertZeroAllocs(t, "Tone.Mix", func() { shift.Mix(s) })
	assertZeroAllocs(t, "Tone.Add", func() { tone.Add(s, 1e-12) })
}

// TestFFTExtractorWorkspaceBitExact: the front end's workspace changes
// where the window and scratch live, not a bit of the result.
func TestFFTExtractorWorkspaceBitExact(t *testing.T) {
	sfe := newSFE(t, prbs.NewFixedSchedule(), FFTExtractor{}, 4)
	for k, d := range []float64{30, 100, 180} {
		s, _ := sfe.ObserveSweep(k, d, -1.5)
		up, down, err := sfe.Extractor.Extract(s)
		if err != nil {
			t.Fatal(err)
		}
		wantUp, wantDown, err := FFTExtractor{}.Extract(s)
		if err != nil {
			t.Fatal(err)
		}
		if up != wantUp || down != wantDown {
			t.Fatalf("d=%v: workspace (%v, %v) vs zero value (%v, %v)", d, up, down, wantUp, wantDown)
		}
	}
}
