package radar

import (
	"math"
	"testing"
	"testing/quick"

	"safesense/internal/noise"
)

// TestReceivedPowerMonotoneProperty: Pr strictly decreases with distance
// and increases with RCS.
func TestReceivedPowerMonotoneProperty(t *testing.T) {
	p := BoschLRR2()
	f := func(dRaw, sRaw float64) bool {
		if math.IsNaN(dRaw) || math.IsNaN(sRaw) {
			return true
		}
		d := 2 + math.Mod(math.Abs(dRaw), 190)
		sigma := 1 + math.Mod(math.Abs(sRaw), 40)
		if p.ReceivedPower(d+5, sigma) >= p.ReceivedPower(d, sigma) {
			return false
		}
		return p.ReceivedPower(d, sigma*2) > p.ReceivedPower(d, sigma)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestBeatFrequencySymmetryProperty: the Doppler shift splits the two
// beats symmetrically about the range beat, for any in-range geometry.
func TestBeatFrequencySymmetryProperty(t *testing.T) {
	p := BoschLRR2()
	f := func(dRaw, vRaw float64) bool {
		if math.IsNaN(dRaw) || math.IsNaN(vRaw) {
			return true
		}
		d := 2 + math.Mod(math.Abs(dRaw), 198)
		v := math.Mod(vRaw, 50)
		up, down := p.BeatFrequencies(d, v)
		mid := (up + down) / 2
		wantMid := d * p.RangeSlope()
		return math.Abs(mid-wantMid) <= 1e-9*(1+wantMid)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSweepPowerMatchesLinkBudgetProperty: the synthesized (noiseless)
// sweep's power equals the Eqn 9 prediction for any in-range target.
func TestSweepPowerMatchesLinkBudgetProperty(t *testing.T) {
	p := BoschLRR2()
	f := func(dRaw float64) bool {
		if math.IsNaN(dRaw) {
			return true
		}
		d := 2 + math.Mod(math.Abs(dRaw), 198)
		s, err := p.SynthesizeSweep(d, 0, 64, nil)
		if err != nil {
			return false
		}
		want := p.ReceivedPower(d, p.TargetRCS)
		return math.Abs(s.Power()-want) <= 1e-9*want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestShiftSweepPreservesPowerProperty: a pure frequency shift is a
// unitary operation on the sweep.
func TestShiftSweepPreservesPowerProperty(t *testing.T) {
	p := BoschLRR2()
	src := noise.NewSource(3)
	f := func(dfRaw float64) bool {
		if math.IsNaN(dfRaw) {
			return true
		}
		df := math.Mod(dfRaw, 1e5)
		s, err := p.SynthesizeSweep(80, -1, 64, src)
		if err != nil {
			return false
		}
		before := s.Power()
		shift := NewTone(df)
		shifted := shift.Mix(s)
		return math.Abs(shifted.Power()-before) <= 1e-9*(1+before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFromBeatsLinearityProperty: FromBeats is linear in the beat pair.
func TestFromBeatsLinearityProperty(t *testing.T) {
	p := BoschLRR2()
	f := func(a1, a2, b1, b2 float64) bool {
		for _, v := range []float64{a1, a2, b1, b2} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				return true
			}
		}
		dA, vA := p.FromBeats(a1, a2)
		dB, vB := p.FromBeats(b1, b2)
		dS, vS := p.FromBeats(a1+b1, a2+b2)
		return math.Abs(dS-(dA+dB)) <= 1e-6*(1+math.Abs(dS)) &&
			math.Abs(vS-(vA+vB)) <= 1e-6*(1+math.Abs(vS))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
