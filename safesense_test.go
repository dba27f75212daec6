package safesense

import (
	"math"
	"strings"
	"testing"
)

// Integration tests exercising the public facade end to end.

func TestFacadeQuickstartFlow(t *testing.T) {
	res, err := Run(Fig2aDoS())
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectedAt != 182 {
		t.Fatalf("DetectedAt = %d, want 182", res.DetectedAt)
	}
	if res.CollisionAt != -1 {
		t.Fatalf("defended run collided at %d", res.CollisionAt)
	}
	var sb strings.Builder
	if err := res.Distance.RenderASCII(&sb, PlotOptions{Width: 60, Height: 12}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "legend") {
		t.Fatal("plot rendering incomplete")
	}
}

func TestFacadeAllFourFigures(t *testing.T) {
	for _, s := range []Scenario{Fig2aDoS(), Fig2bDelay(), Fig3aDoS(), Fig3bDelay()} {
		res, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if res.DetectedAt != 182 {
			t.Fatalf("%s: DetectedAt = %d", s.Name, res.DetectedAt)
		}
		if res.Accuracy.FalsePositives != 0 || res.Accuracy.FalseNegatives != 0 {
			t.Fatalf("%s: accuracy %+v", s.Name, res.Accuracy)
		}
		if res.CollisionAt != -1 {
			t.Fatalf("%s: collision at %d", s.Name, res.CollisionAt)
		}
	}
}

func TestFacadeBaselineAndUndefended(t *testing.T) {
	base := Baseline(Fig2bDelay())
	if base.Attack.Kind != NoAttack {
		t.Fatal("Baseline must strip the attack")
	}
	und := Undefended(Fig2bDelay())
	if und.Defended {
		t.Fatal("Undefended must disable the defense")
	}
	bres, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	ures, err := Run(und)
	if err != nil {
		t.Fatal(err)
	}
	// The headline comparison of the paper: the undefended system under
	// attack keeps a dangerously smaller real gap than the clean system.
	if ures.MinGap >= bres.MinGap {
		t.Fatalf("undefended min gap %v should be below clean %v", ures.MinGap, bres.MinGap)
	}
}

func TestFacadeRadarAndJammer(t *testing.T) {
	p := BoschLRR2()
	j := PaperJammer()
	// Eqn 11's success condition must hold at the case-study range.
	if !j.Succeeds(p, 100) {
		t.Fatal("paper jammer should succeed at 100 m")
	}
	fbUp, fbDown := p.BeatFrequencies(100, -1)
	d, v := p.FromBeats(fbUp, fbDown)
	if math.Abs(d-100) > 1e-9 || math.Abs(v-(-1)) > 1e-9 {
		t.Fatal("beat round trip failed through the facade")
	}
}

func TestFacadeRLS(t *testing.T) {
	r, err := NewRLS(0.99, 10)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 200; k++ {
		h := [2]float64{1, float64(k % 7)}
		r.Update(h, 3+2*h[1])
	}
	w := r.Weights()
	if math.Abs(w[0]-3) > 0.01 || math.Abs(w[1]-2) > 0.01 {
		t.Fatalf("weights = %v", w)
	}
}

func TestFacadePredictor(t *testing.T) {
	p, err := NewPredictor(DefaultPredictorConfig())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 100; k++ {
		p.Observe(float64(10 + k))
	}
	if got := p.Predict(); math.Abs(got-110) > 1 {
		t.Fatalf("prediction = %v, want ~110", got)
	}
}

func TestFacadeUnits(t *testing.T) {
	if math.Abs(MphToMps(65)-29.0576) > 1e-3 {
		t.Fatal("MphToMps")
	}
	if math.Abs(MpsToMph(MphToMps(42))-42) > 1e-9 {
		t.Fatal("unit round trip")
	}
}

func TestFacadeChallengeSchedule(t *testing.T) {
	s := PaperChallengeSchedule()
	for _, k := range []int{15, 50, 175, 182} {
		if !s.Challenge(k) {
			t.Fatalf("schedule missing paper challenge %d", k)
		}
	}
}

func TestFacadeCustomScenario(t *testing.T) {
	// Build a custom scenario through the public API only: stronger
	// spoof offset, later attack.
	s := Fig2bDelay()
	s.Name = "custom-delay-12m"
	s.Attack.OffsetM = 12
	s.Attack.Window.Start = 200
	s.Seed = 7
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	// Detection at the first challenge >= 200 in the paper schedule (203).
	if res.DetectedAt != 203 {
		t.Fatalf("DetectedAt = %d, want 203", res.DetectedAt)
	}
}
