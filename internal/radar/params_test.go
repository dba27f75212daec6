package radar

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"safesense/internal/units"
)

func TestBoschLRR2Valid(t *testing.T) {
	if err := BoschLRR2().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	base := BoschLRR2()
	cases := []func(*Params){
		func(p *Params) { p.CarrierHz = 0 },
		func(p *Params) { p.SweepBandwidthHz = -1 },
		func(p *Params) { p.SweepTimeSec = 0 },
		func(p *Params) { p.WavelengthM = 0 },
		func(p *Params) { p.TransmitPowerW = 0 },
		func(p *Params) { p.MinRangeM = 0 },
		func(p *Params) { p.MaxRangeM = 1 },
		func(p *Params) { p.SampleRateHz = 0 },
		func(p *Params) { p.TargetRCS = 0 },
		func(p *Params) { p.SampleRateHz = 100e3 }, // Nyquist violation at 200 m
	}
	for i, mutate := range cases {
		p := base
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestBeatFrequenciesKnownValues(t *testing.T) {
	p := BoschLRR2()
	// At d = 100 m, stationary: fr = 2*100*150e6/(0.002*c) ≈ 100.07 kHz.
	fbUp, fbDown := p.BeatFrequencies(100, 0)
	fr := 2 * 100 * 150e6 / (0.002 * units.SpeedOfLight)
	if math.Abs(fbUp-fr) > 1e-6 || math.Abs(fbDown-fr) > 1e-6 {
		t.Fatalf("beats = (%v, %v), want %v", fbUp, fbDown, fr)
	}
	// Moving target: Doppler splits the beats symmetrically.
	fbUp, fbDown = p.BeatFrequencies(100, -2) // closing at 2 m/s
	fd := 2 * (-2.0) / p.WavelengthM
	if math.Abs((fbDown-fbUp)-2*fd) > 1e-6 {
		t.Fatalf("Doppler split = %v, want %v", fbDown-fbUp, 2*fd)
	}
}

func TestBeatsRoundTripProperty(t *testing.T) {
	p := BoschLRR2()
	f := func(dRaw, vRaw float64) bool {
		if math.IsNaN(dRaw) || math.IsNaN(vRaw) {
			return true
		}
		d := 2 + math.Mod(math.Abs(dRaw), 198)
		v := math.Mod(vRaw, 50)
		fbUp, fbDown := p.BeatFrequencies(d, v)
		d2, v2 := p.FromBeats(fbUp, fbDown)
		return math.Abs(d2-d) < 1e-9*(1+d) && math.Abs(v2-v) < 1e-9*(1+math.Abs(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFromBeatsUsesPaperEquations(t *testing.T) {
	p := BoschLRR2()
	// Eqn 7/8 with hand-picked beats.
	fbUp, fbDown := 90e3, 110e3
	d, v := p.FromBeats(fbUp, fbDown)
	wantD := p.SweepTimeSec * units.SpeedOfLight * (fbUp + fbDown) / (4 * p.SweepBandwidthHz)
	wantV := p.WavelengthM * (fbDown - fbUp) / 4
	if math.Abs(d-wantD) > 1e-9 || math.Abs(v-wantV) > 1e-12 {
		t.Fatalf("FromBeats = (%v, %v), want (%v, %v)", d, v, wantD, wantV)
	}
}

func TestReceivedPowerFourthPowerLaw(t *testing.T) {
	p := BoschLRR2()
	p1 := p.ReceivedPower(50, p.TargetRCS)
	p2 := p.ReceivedPower(100, p.TargetRCS)
	// Doubling distance divides power by 16.
	if math.Abs(p1/p2-16) > 1e-9 {
		t.Fatalf("power ratio = %v, want 16", p1/p2)
	}
}

func TestReceivedPowerMagnitude(t *testing.T) {
	// Sanity of absolute level: ~3e-12 W at 100 m for a 10 m^2 target
	// with the LRR2 link budget.
	p := BoschLRR2()
	pr := p.ReceivedPower(100, 10)
	if pr < 1e-12 || pr > 1e-11 {
		t.Fatalf("Pr(100m) = %v W, want ~3e-12", pr)
	}
}

func TestSNRMonotoneDecreasing(t *testing.T) {
	p := BoschLRR2()
	prev := math.Inf(1)
	for d := 2.0; d <= 200; d += 5 {
		s := p.SNRdB(d)
		if s >= prev {
			t.Fatalf("SNR not decreasing at %v m", d)
		}
		prev = s
	}
	// Positive SNR across most of the operating range.
	if p.SNRdB(100) < 10 {
		t.Fatalf("SNR(100m) = %v dB, want > 10", p.SNRdB(100))
	}
}

func TestInRange(t *testing.T) {
	p := BoschLRR2()
	for _, c := range []struct {
		d    float64
		want bool
	}{{1.9, false}, {2, true}, {100, true}, {200, true}, {200.1, false}} {
		if got := p.InRange(c.d); got != c.want {
			t.Fatalf("InRange(%v) = %v", c.d, got)
		}
	}
}

func TestRoundTripDelayConsistency(t *testing.T) {
	// The delay tau = 2d/c inserted by a spoofer maps back to a distance
	// offset via the range slope: f_extra = tau * slope * c/2... i.e. an
	// extra delay of 2*6/c seconds must read as +6 m.
	p := BoschLRR2()
	extra := units.RoundTripDelay(6)
	df := extra * p.SweepBandwidthHz / p.SweepTimeSec // beat shift from delay
	fbUp, fbDown := p.BeatFrequencies(100, 0)
	d, v := p.FromBeats(fbUp+df, fbDown+df)
	if math.Abs(d-106) > 1e-6 {
		t.Fatalf("spoofed distance = %v, want 106", d)
	}
	if math.Abs(v) > 1e-9 {
		t.Fatalf("spoofed velocity = %v, want 0", v)
	}
}

// TestPow4MatchesMathPow pins receivedPower's (d*d)*(d*d) to the
// math.Pow(d, 4) it replaced, bit for bit: over the radar's range (down
// to the sonar's 0.2 m floor, which uses the same product) and over a
// log-uniform set spanning 120 decades of normal d.
func TestPow4MatchesMathPow(t *testing.T) {
	p := BoschLRR2()
	b := p.linkBudget(p.TargetRCS)
	const n = 200_000
	lo, hi := 0.2, p.MaxRangeM
	for i := 0; i <= n; i++ {
		d := lo + (hi-lo)*float64(i)/n
		got := b.receivedPower(d)
		want := b.num / (b.fourPi3 * math.Pow(d, 4) * b.loss)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("receivedPower(%v) = %v, math.Pow form gives %v", d, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		d := math.Pow(10, -60+120*rng.Float64())
		d2 := d * d
		if got, want := d2*d2, math.Pow(d, 4); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("(d*d)*(d*d) = %v, math.Pow(%v, 4) = %v", got, d, want)
		}
	}
}
