package radar

import (
	"math"
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
	shifted := ShiftSweep(s, df)
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
	spoofed := AddToneSweep(s, fb, 1e-9)
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
