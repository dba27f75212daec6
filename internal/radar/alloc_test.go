package radar

import (
	"testing"

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

func TestMeasureFFTZeroAlloc(t *testing.T) {
	sfe := newSFE(t, prbs.NewFixedSchedule(), FFTExtractor{}, 2)
	s, challenge := sfe.ObserveSweep(3, 100, -1.5)
	if s.Power() <= sfe.ZeroThreshold() {
		t.Fatal("target sweep below the quiet threshold: Measure would skip extraction")
	}
	assertZeroAllocs(t, "Measure (FFT, 128 samples)", func() { sfe.Measure(3, s, challenge) })
}

func TestSweepTransformsZeroAlloc(t *testing.T) {
	sfe := newSFE(t, prbs.NewFixedSchedule(), FFTExtractor{}, 3)
	s, _ := sfe.ObserveSweep(1, 100, -1.5)
	assertZeroAllocs(t, "AddNoiseSweep", func() { AddNoiseSweep(s, 1e-12, sfe.src) })
	assertZeroAllocs(t, "ShiftSweep", func() { ShiftSweep(s, 1e3) })
	assertZeroAllocs(t, "AddToneSweep", func() { AddToneSweep(s, 1e4, 1e-12) })
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
