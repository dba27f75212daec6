package radar

import (
	"math"
	"math/cmplx"
	"testing"

	"safesense/internal/noise"
	"safesense/internal/prbs"
)

func TestSynthesizeSweepNoiseless(t *testing.T) {
	p := BoschLRR2()
	s, err := p.SynthesizeSweep(120, -1.5, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Up) != 512 || len(s.Down) != 512 {
		t.Fatal("wrong segment lengths")
	}
	// Segment power equals the link-budget received power.
	want := p.ReceivedPower(120, p.TargetRCS)
	if got := noise.AveragePower(s.Up); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("up power = %v, want %v", got, want)
	}
}

// TestFillToneMatchesRect: the phasor recurrence stays within 1e-12*amp
// of per-sample cmplx.Rect at every length up to 1024 samples (partial
// and whole blocks), at rates near 0, near pi/3 and just under pi, and at
// amplitudes spanning the link budget's received powers.
func TestFillToneMatchesRect(t *testing.T) {
	for _, w := range []float64{1e-9, 1e-3, math.Pi / 3, math.Pi/3 + 1e-7, math.Pi - 1e-9, -(math.Pi - 1e-6)} {
		for _, amp := range []float64{1, 3e-6, 7e4} {
			for _, n := range []int{1, 2, toneBlock - 1, toneBlock, toneBlock + 1, 100, 128, 256, 1000, 1024} {
				f := w / (2 * math.Pi)
				x := make([]complex128, n)
				fillTone(x, f, 1, amp)
				wf := 2 * math.Pi * f // the rate fillTone derives from f
				worst := 0.0
				for k, v := range x {
					worst = math.Max(worst, cmplx.Abs(v-cmplx.Rect(amp, wf*float64(k))))
				}
				if worst > 1e-12*amp {
					t.Fatalf("w=%v amp=%v n=%d: max |error| %g exceeds 1e-12*amp", w, amp, n, worst)
				}
			}
		}
	}
}

func TestSynthesizeSweepValidation(t *testing.T) {
	p := BoschLRR2()
	if _, err := p.SynthesizeSweep(100, 0, 1, nil); err == nil {
		t.Fatal("n=1 should fail")
	}
	if _, err := p.SynthesizeSweep(-5, 0, 64, nil); err == nil {
		t.Fatal("negative distance should fail")
	}
}

func TestFFTExtractorRecoversTruth(t *testing.T) {
	p := BoschLRR2()
	src := noise.NewSource(1)
	d, v, err := p.MeasureSweep(100, -1.2, 1024, FFTExtractor{}, src)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-100) > 1.5 {
		t.Fatalf("FFT distance = %v, want ~100", d)
	}
	if math.Abs(v-(-1.2)) > 0.6 {
		t.Fatalf("FFT velocity = %v, want ~-1.2", v)
	}
}

func TestMUSICExtractorRecoversTruth(t *testing.T) {
	p := BoschLRR2()
	src := noise.NewSource(2)
	d, v, err := p.MeasureSweep(100, -1.2, 256, MUSICExtractor{}, src)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-100) > 1.0 {
		t.Fatalf("MUSIC distance = %v, want ~100", d)
	}
	if math.Abs(v-(-1.2)) > 0.5 {
		t.Fatalf("MUSIC velocity = %v, want ~-1.2", v)
	}
}

func TestMUSICExtractorAcrossRange(t *testing.T) {
	p := BoschLRR2()
	src := noise.NewSource(3)
	for _, d := range []float64{10, 50, 150} {
		got, _, err := p.MeasureSweep(d, 0, 256, MUSICExtractor{}, src)
		if err != nil {
			t.Fatalf("d=%v: %v", d, err)
		}
		if math.Abs(got-d) > 1.0+d*0.02 {
			t.Fatalf("d=%v: measured %v", d, got)
		}
	}
}

func TestExtractorNames(t *testing.T) {
	if (FFTExtractor{}).Name() != "fft" {
		t.Fatal("FFT extractor name")
	}
	if (MUSICExtractor{}).Name() != "root-music" {
		t.Fatal("MUSIC extractor name")
	}
}

func TestSweepPowerChallengeVsTarget(t *testing.T) {
	p := BoschLRR2()
	src := noise.NewSource(4)
	sig, err := p.SynthesizeSweep(100, 0, 256, src)
	if err != nil {
		t.Fatal(err)
	}
	quiet := p.SynthesizeSilence(256, src)
	// Target return power must dominate the challenge-silence power.
	if sig.Power() < 5*quiet.Power() {
		t.Fatalf("signal power %v not well above silence power %v", sig.Power(), quiet.Power())
	}
	// Silence power must sit near the noise floor.
	nf := p.NoiseFloor()
	if quiet.Power() > 3*nf || quiet.Power() < nf/3 {
		t.Fatalf("silence power %v vs noise floor %v", quiet.Power(), nf)
	}
}

func newTestFrontEnd(t *testing.T, sched prbs.Schedule, seed int64) *FrontEnd {
	t.Helper()
	fe, err := NewFrontEnd(BoschLRR2(), sched, noise.NewSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	return fe
}

func TestFrontEndObserveClean(t *testing.T) {
	fe := newTestFrontEnd(t, prbs.NewFixedSchedule(), 5)
	m := fe.Observe(3, 100, -1)
	if m.Challenge {
		t.Fatal("unexpected challenge")
	}
	if math.Abs(m.Distance-100) > 8 || math.Abs(m.RelVelocity-(-1)) > 5 {
		t.Fatalf("measurement (%v, %v) too far from truth", m.Distance, m.RelVelocity)
	}
	if m.IsZero(fe.ZeroThreshold()) {
		t.Fatal("target return must exceed the zero threshold")
	}
}

func TestFrontEndChallengeIsZero(t *testing.T) {
	fe := newTestFrontEnd(t, prbs.NewFixedSchedule(7), 6)
	m := fe.Observe(7, 100, -1)
	if !m.Challenge {
		t.Fatal("expected challenge at k=7")
	}
	if m.Distance != 0 || m.RelVelocity != 0 {
		t.Fatalf("challenge measurement = (%v, %v), want zeros", m.Distance, m.RelVelocity)
	}
	if !m.IsZero(fe.ZeroThreshold()) {
		t.Fatalf("challenge power %v above threshold %v", m.Power, fe.ZeroThreshold())
	}
}

func TestFrontEndOutOfRange(t *testing.T) {
	fe := newTestFrontEnd(t, prbs.NewFixedSchedule(), 7)
	m := fe.Observe(0, 500, -1)
	if m.Distance != 200 {
		t.Fatalf("out-of-range report = %v, want clamp to 200", m.Distance)
	}
	m2 := fe.Observe(1, 1, -1)
	if m2.Distance != 2 {
		t.Fatalf("below-range report = %v, want clamp to 2", m2.Distance)
	}
}

func TestFrontEndNoiseScalesWithDistance(t *testing.T) {
	fe := newTestFrontEnd(t, prbs.NewFixedSchedule(), 8)
	spread := func(d float64) float64 {
		var s2 float64
		n := 400
		for i := 0; i < n; i++ {
			m := fe.Observe(i, d, 0)
			s2 += (m.Distance - d) * (m.Distance - d)
		}
		return math.Sqrt(s2 / float64(n))
	}
	near, far := spread(50), spread(180)
	if far <= near {
		t.Fatalf("noise at 180 m (%v) should exceed noise at 50 m (%v)", far, near)
	}
}

func TestNewFrontEndValidation(t *testing.T) {
	src := noise.NewSource(1)
	if _, err := NewFrontEnd(BoschLRR2(), nil, src); err == nil {
		t.Fatal("nil schedule should fail")
	}
	if _, err := NewFrontEnd(BoschLRR2(), prbs.NewFixedSchedule(), nil); err == nil {
		t.Fatal("nil source should fail")
	}
	bad := BoschLRR2()
	bad.SampleRateHz = 0
	if _, err := NewFrontEnd(bad, prbs.NewFixedSchedule(), src); err == nil {
		t.Fatal("invalid params should fail")
	}
}

func TestClosedFormModelStds(t *testing.T) {
	fe := newTestFrontEnd(t, prbs.NewFixedSchedule(), 1)
	m := DefaultClosedFormModel()
	_, d100, v100 := fe.link(100)
	if math.Abs(d100-m.DistStdRef) > 1e-9 || math.Abs(v100-m.VelStdRef) > 1e-9 {
		t.Fatalf("reference stds = (%v, %v)", d100, v100)
	}
	_, d200, _ := fe.link(200)
	// 1/sqrt(SNR) scaling: doubling distance quadruples the std.
	if math.Abs(d200/d100-4) > 1e-6 {
		t.Fatalf("std scaling = %v, want 4", d200/d100)
	}
}

// TestFrontEndLinkBudgetBitExact: the link terms NewFrontEnd caches must
// reproduce the uncached radar equation and SNR scaling bit for bit over
// the whole operating range.
func TestFrontEndLinkBudgetBitExact(t *testing.T) {
	p := BoschLRR2()
	fe := newTestFrontEnd(t, prbs.NewFixedSchedule(), 1)
	m := DefaultClosedFormModel()
	for d := p.MinRangeM; d <= p.MaxRangeM; d += 0.37 {
		refSNR := p.ReceivedPower(m.RefDist, p.TargetRCS) / p.NoiseFloor()
		snr := p.ReceivedPower(d, p.TargetRCS) / p.NoiseFloor()
		scale := math.Sqrt(refSNR / snr)
		pr, stdD, stdV := fe.link(d)
		if pr != p.ReceivedPower(d, p.TargetRCS) || stdD != m.DistStdRef*scale || stdV != m.VelStdRef*scale {
			t.Fatalf("d = %v: link (%v, %v, %v), uncached (%v, %v, %v)", d,
				pr, stdD, stdV, p.ReceivedPower(d, p.TargetRCS), m.DistStdRef*scale, m.VelStdRef*scale)
		}
	}
}

func TestFrontEndObserveZeroAlloc(t *testing.T) {
	fe := newTestFrontEnd(t, prbs.PaperFigureSchedule(), 2)
	k := 0
	if avg := testing.AllocsPerRun(300, func() {
		fe.Observe(k, 80+float64(k%150), -0.5) // in range, out of range and challenge steps
		k++
	}); avg != 0 {
		t.Fatalf("Observe: %v allocs/op, want 0", avg)
	}
}
