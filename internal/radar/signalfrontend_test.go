package radar

import (
	"math"
	"math/cmplx"
	"testing"

	"safesense/internal/noise"
	"safesense/internal/prbs"
)

// Observe is the attack-free composition of ObserveSweep and Measure.
func (f *SignalFrontEnd) Observe(k int, dTrue, vRelTrue float64) Measurement {
	s, challenge := f.ObserveSweep(k, dTrue, vRelTrue)
	return f.Measure(k, s, challenge)
}

func newSFE(t *testing.T, sched prbs.Schedule, ext BeatExtractor, seed int64) *SignalFrontEnd {
	t.Helper()
	sfe, err := NewSignalFrontEnd(BoschLRR2(), sched, ext, 128, noise.NewSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sfe
}

func TestNewSignalFrontEndValidation(t *testing.T) {
	p := BoschLRR2()
	src := noise.NewSource(1)
	sched := prbs.NewFixedSchedule()
	if _, err := NewSignalFrontEnd(p, nil, FFTExtractor{}, 128, src); err == nil {
		t.Fatal("nil schedule should fail")
	}
	if _, err := NewSignalFrontEnd(p, sched, nil, 128, src); err == nil {
		t.Fatal("nil extractor should fail")
	}
	if _, err := NewSignalFrontEnd(p, sched, FFTExtractor{}, 8, src); err == nil {
		t.Fatal("too few samples should fail")
	}
	if _, err := NewSignalFrontEnd(p, sched, FFTExtractor{}, 128, nil); err == nil {
		t.Fatal("nil source should fail")
	}
	bad := p
	bad.SampleRateHz = 0
	if _, err := NewSignalFrontEnd(bad, sched, FFTExtractor{}, 128, src); err == nil {
		t.Fatal("bad params should fail")
	}
}

func TestSignalObserveRecoversTruth(t *testing.T) {
	for _, ext := range []BeatExtractor{FFTExtractor{}, MUSICExtractor{}} {
		sfe := newSFE(t, prbs.NewFixedSchedule(), ext, 2)
		m := sfe.Observe(0, 80, -1.5)
		if m.Challenge {
			t.Fatal("unexpected challenge")
		}
		if math.Abs(m.Distance-80) > 2 {
			t.Fatalf("%s: distance %v, want ~80", ext.Name(), m.Distance)
		}
		if math.Abs(m.RelVelocity-(-1.5)) > 0.8 {
			t.Fatalf("%s: velocity %v, want ~-1.5", ext.Name(), m.RelVelocity)
		}
		if m.IsZero(sfe.ZeroThreshold()) {
			t.Fatalf("%s: target return reads as quiet", ext.Name())
		}
	}
}

func TestSignalChallengeReadsZero(t *testing.T) {
	sfe := newSFE(t, prbs.NewFixedSchedule(5), FFTExtractor{}, 3)
	m := sfe.Observe(5, 80, -1.5)
	if !m.Challenge {
		t.Fatal("expected challenge")
	}
	if m.Distance != 0 || m.RelVelocity != 0 {
		t.Fatalf("challenge output = (%v, %v), want zeros", m.Distance, m.RelVelocity)
	}
	if !m.IsZero(sfe.ZeroThreshold()) {
		t.Fatalf("challenge power %v above threshold", m.Power)
	}
}

func TestSignalOutOfRangeReadsZero(t *testing.T) {
	sfe := newSFE(t, prbs.NewFixedSchedule(), FFTExtractor{}, 4)
	m := sfe.Observe(0, 500, 0)
	if !m.IsZero(sfe.ZeroThreshold()) {
		t.Fatal("out-of-range target should read as noise")
	}
}

func TestShiftSweepMovesBeatFrequency(t *testing.T) {
	p := BoschLRR2()
	s, err := p.SynthesizeSweep(100, 0, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Shift corresponding to +6 m: df = tau * Bs / Ts.
	df := (2 * 6.0 / 299792458.0) * p.SweepBandwidthHz / p.SweepTimeSec
	shift := NewTone(df)
	shifted := shift.Mix(s)
	fbUp, fbDown, err := (FFTExtractor{}).Extract(shifted)
	if err != nil {
		t.Fatal(err)
	}
	d, v := p.FromBeats(fbUp, fbDown)
	if math.Abs(d-106) > 1.0 {
		t.Fatalf("shifted distance = %v, want ~106", d)
	}
	if math.Abs(v) > 0.5 {
		t.Fatalf("shifted velocity = %v, want ~0", v)
	}
}

func TestAddNoiseSweepRaisesPower(t *testing.T) {
	p := BoschLRR2()
	src := noise.NewSource(5)
	s := p.SynthesizeSilence(256, src)
	before := s.Power()
	jammed := AddNoiseSweep(s, 1e-9, src)
	if jammed.Power() < 100*before {
		t.Fatalf("jamming power not visible: %v -> %v", before, jammed.Power())
	}
	// The jam lands in place: the returned sweep is the one passed in.
	if &jammed.Up[0] != &s.Up[0] || &jammed.Down[0] != &s.Down[0] || s.Power() != jammed.Power() {
		t.Fatal("AddNoiseSweep did not transform its sweep in place")
	}
}

func TestAddToneSweepPowerAndFrequency(t *testing.T) {
	p := BoschLRR2()
	src := noise.NewSource(6)
	s := p.SynthesizeSilence(256, src)
	fb, _ := p.BeatFrequencies(101, 0)
	tone := NewTone(fb)
	spoofed := tone.Add(s, 1e-9)
	fbUp, fbDown, err := (FFTExtractor{}).Extract(spoofed)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := p.FromBeats(fbUp, fbDown)
	if math.Abs(d-101) > 2 {
		t.Fatalf("spoofed tone reads as %v m, want ~101", d)
	}
}

func TestSignalMeasureClampsGarbage(t *testing.T) {
	// A pure-noise hot channel must yield a clamped, finite report.
	p := BoschLRR2()
	src := noise.NewSource(7)
	sfe := newSFE(t, prbs.NewFixedSchedule(), FFTExtractor{}, 7)
	s := p.SynthesizeSilence(128, src)
	hot := AddNoiseSweep(s, 1e-8, src)
	m := sfe.Measure(3, hot, false)
	if math.IsNaN(m.Distance) || m.Distance < 0 || m.Distance > p.MaxRangeM*1.2 {
		t.Fatalf("garbage distance %v outside clamp", m.Distance)
	}
	if math.Abs(m.RelVelocity) > 60 {
		t.Fatalf("garbage velocity %v outside clamp", m.RelVelocity)
	}
}

// TestToneMatchesPerSampleSynthesis: a Tone's table is fillTone's output,
// so Mix multiplies and Add adds exactly the samples the target's own
// beat-tone generator makes, and those stay within 1e-12*amp of the
// per-sample cmplx.Rect(amp, w*k) synthesis, across lengths,
// frequencies, sample rates and powers. Cases sharing a frequency reuse
// one Tone pair, so table rebuilds are covered too.
func TestToneMatchesPerSampleSynthesis(t *testing.T) {
	src := noise.NewSource(8)
	type tones struct{ mix, add Tone }
	byFreq := map[float64]*tones{}
	for _, c := range []struct {
		n            int
		freq, fs, pw float64
	}{
		{128, 4.3e5, 2e6, 1e-9},
		{128, 4.3e5, 2e6, 1e-9},  // cache hit
		{256, 4.3e5, 2e6, 1e-9},  // new length
		{256, 4.3e5, 1e6, 1e-9},  // new sample rate
		{256, 4.3e5, 1e6, 1e-10}, // new power
		{32, 1e3, 2e6, 1},
		{256, -7.7e4, 2e6, 3.5e-12},
		{100, 1.234567e5, 2e6, 1e-7},
	} {
		tt := byFreq[c.freq]
		if tt == nil {
			tt = &tones{NewTone(c.freq), NewTone(c.freq)}
			byFreq[c.freq] = tt
		}
		up, down := src.ComplexNoiseVec(c.n, 1), src.ComplexNoiseVec(c.n, 1)
		sweep := func() Sweep {
			return Sweep{Up: append([]complex128{}, up...), Down: append([]complex128{}, down...), Fs: c.fs}
		}
		amp := math.Sqrt(c.pw)
		unit, scaled := make([]complex128, c.n), make([]complex128, c.n)
		fillTone(unit, c.freq, c.fs, 1)
		fillTone(scaled, c.freq, c.fs, amp)
		w := 2 * math.Pi * c.freq / c.fs
		for i := range scaled {
			if e := cmplx.Abs(scaled[i] - cmplx.Rect(amp, w*float64(i))); e > 1e-12*amp {
				t.Fatalf("%+v: tone sample %d is %g from cmplx.Rect, over 1e-12*amp", c, i, e)
			}
		}
		wantMix, wantAdd := sweep(), sweep()
		for _, x := range [][]complex128{wantMix.Up, wantMix.Down} {
			for i, v := range x {
				x[i] = v * unit[i]
			}
		}
		for _, x := range [][]complex128{wantAdd.Up, wantAdd.Down} {
			for i, v := range x {
				x[i] = v + scaled[i]
			}
		}
		mixed, added := tt.mix.Mix(sweep()), tt.add.Add(sweep(), c.pw)
		for i := range up {
			if mixed.Up[i] != wantMix.Up[i] || mixed.Down[i] != wantMix.Down[i] {
				t.Fatalf("%+v: Mix sample %d differs from fillTone's table", c, i)
			}
			if added.Up[i] != wantAdd.Up[i] || added.Down[i] != wantAdd.Down[i] {
				t.Fatalf("%+v: Add sample %d differs from fillTone's table", c, i)
			}
		}
	}
}
