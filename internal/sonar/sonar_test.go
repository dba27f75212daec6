package sonar

import (
	"math"
	"testing"
	"testing/quick"

	"safesense/internal/cra"
	"safesense/internal/estimate"
	"safesense/internal/noise"
	"safesense/internal/prbs"
	"safesense/internal/radar"
)

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Params){
		func(p *Params) { p.CarrierHz = 0 },
		func(p *Params) { p.MinRangeM = 0 },
		func(p *Params) { p.MaxRangeM = 0.1 },
		func(p *Params) { p.TimingStdSec = -1 },
		func(p *Params) { p.EchoLevel = p.NoiseLevel },
	}
	for i, m := range mutations {
		p := DefaultParams()
		m(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("mutation %d should fail", i)
		}
	}
}

func TestTimeOfFlightRoundTrip(t *testing.T) {
	f := func(d float64) bool {
		if math.IsNaN(d) || math.IsInf(d, 0) || math.Abs(d) > 1e6 {
			return true
		}
		back := DistanceFromTOF(TimeOfFlight(d))
		return math.Abs(back-d) <= 1e-9*(1+math.Abs(d))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// 1 m target: TOF = 2/343 ≈ 5.83 ms.
	if tof := TimeOfFlight(1); math.Abs(tof-2.0/343) > 1e-12 {
		t.Fatalf("TOF(1m) = %v", tof)
	}
}

func newFE(t *testing.T, sched prbs.Schedule, seed int64) *FrontEnd {
	t.Helper()
	fe, err := NewFrontEnd(DefaultParams(), sched, noise.NewSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	return fe
}

func TestFrontEndObserve(t *testing.T) {
	fe := newFE(t, prbs.NewFixedSchedule(), 1)
	m := fe.Observe(0, 2.0)
	if math.Abs(m.Distance-2.0) > 0.05 {
		t.Fatalf("distance = %v, want ~2", m.Distance)
	}
	if m.Level <= fe.ZeroThreshold() {
		t.Fatal("echo should exceed the quiet threshold")
	}
}

func TestFrontEndChallengeQuiet(t *testing.T) {
	fe := newFE(t, prbs.NewFixedSchedule(3), 2)
	m := fe.Observe(3, 2.0)
	if !m.Challenge || m.Distance != 0 {
		t.Fatalf("challenge output: %+v", m)
	}
	if m.Level > fe.ZeroThreshold() {
		t.Fatal("challenge should read quiet")
	}
}

func TestFrontEndOutOfRange(t *testing.T) {
	fe := newFE(t, prbs.NewFixedSchedule(), 3)
	if m := fe.Observe(0, 10); m.Level > fe.ZeroThreshold() {
		t.Fatal("beyond max range: no echo expected")
	}
	if m := fe.Observe(1, 0.05); m.Level > fe.ZeroThreshold() {
		t.Fatal("below min range: no echo expected")
	}
}

func TestFrontEndValidation(t *testing.T) {
	src := noise.NewSource(1)
	if _, err := NewFrontEnd(DefaultParams(), nil, src); err == nil {
		t.Fatal("nil schedule should fail")
	}
	if _, err := NewFrontEnd(DefaultParams(), prbs.NewFixedSchedule(), nil); err == nil {
		t.Fatal("nil source should fail")
	}
	bad := DefaultParams()
	bad.CarrierHz = 0
	if _, err := NewFrontEnd(bad, prbs.NewFixedSchedule(), src); err == nil {
		t.Fatal("bad params should fail")
	}
}

func TestDelayEchoAttack(t *testing.T) {
	a, err := NewDelayEcho(10, 50, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	clean := Measurement{K: 20, Distance: 1.0, Level: 1.0}
	got := a.Corrupt(20, clean)
	if math.Abs(got.Distance-2.5) > 1e-12 {
		t.Fatalf("spoofed distance = %v, want 2.5", got.Distance)
	}
	// Challenge leak detectable.
	threshold := 10 * DefaultParams().NoiseLevel
	ch := Measurement{K: 30, Challenge: true, Level: DefaultParams().NoiseLevel}
	if out := a.Corrupt(30, ch); out.Level <= threshold {
		t.Fatal("spoofer leak should be detectable at challenges")
	}
	if out := a.Corrupt(5, clean); out != clean {
		t.Fatal("outside window must be identity")
	}
	if _, err := NewDelayEcho(10, 5, 1); err == nil {
		t.Fatal("inverted window should fail")
	}
	if _, err := NewDelayEcho(1, 5, 0); err == nil {
		t.Fatal("zero extra should fail")
	}
}

func TestParkingLoopCRADetectsAndRLSRecovers(t *testing.T) {
	// A reversing-car scenario: the obstacle distance shrinks 2 cm/step
	// from 3 m; the spoofer inflates it by +1.5 m from step 60 — the
	// driver would keep reversing into the obstacle. CRA catches the
	// spoofer at the next challenge and the RLS trend supplies safe
	// distances.
	sched := prbs.NewFixedSchedule(10, 30, 62, 90, 120)
	fe := newFE(t, sched, 5)
	det, err := cra.NewDetector(sched, fe.ZeroThreshold())
	if err != nil {
		t.Fatal(err)
	}
	atk, err := NewDelayEcho(60, 149, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := estimate.NewPredictor(estimate.DefaultPredictorConfig())
	if err != nil {
		t.Fatal(err)
	}
	detectedAt := -1
	var estErr []float64
	var snap *estimate.Predictor
	for k := 0; k < 150; k++ {
		d := 3.0 - 0.02*float64(k)
		m := atk.Corrupt(k, fe.Observe(k, d))
		// The sonar Measurement satisfies the detector contract via a
		// radar-shaped adapter: reuse the CRA detector by mapping Level
		// to Power.
		ev := det.Step(adapt(m))
		if ev.Detected && detectedAt < 0 {
			detectedAt = k
			// Roll back past the spoof-poisoned samples absorbed between
			// onset and detection, as the longitudinal runner does.
			if snap != nil {
				pred = snap.Clone()
				for pred.Wall() < k-1 {
					pred.Predict()
				}
			}
		}
		if ev.Challenged && ev.State == cra.Clear {
			snap = pred.Clone()
		}
		switch {
		case ev.State == cra.UnderAttack && pred.Ready():
			est := pred.Predict()
			estErr = append(estErr, est-d)
		case m.Challenge:
			pred.SkipStep()
		default:
			if ev.State == cra.Clear {
				if _, err := pred.Observe(m.Distance); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if detectedAt != 62 {
		t.Fatalf("detected at %d, want 62 (first challenge after onset)", detectedAt)
	}
	if len(estErr) == 0 {
		t.Fatal("no estimates produced")
	}
	worst := 0.0
	for _, e := range estErr {
		if a := math.Abs(e); a > worst {
			worst = a
		}
	}
	if worst > 0.15 {
		t.Fatalf("worst estimate error %v m, want < 0.15", worst)
	}
}

// adapt maps a sonar measurement onto the radar measurement shape the CRA
// detector consumes (Power <- Level): the detector only inspects channel
// energy at challenge instants, so it is sensor-agnostic.
func adapt(m Measurement) radar.Measurement {
	return radar.Measurement{K: m.K, Power: m.Level, Challenge: m.Challenge}
}
