package sim

import (
	"math"
	"testing"

	"safesense/internal/attack"
	"safesense/internal/prbs"
	"safesense/internal/units"
)

func TestScenarioValidate(t *testing.T) {
	s := Fig2aDoS()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := s
	bad.Steps = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("steps 0 should fail")
	}
	bad = s
	bad.LeaderProfile = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("nil profile should fail")
	}
	bad = s
	bad.Schedule = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("nil schedule should fail")
	}
	bad = s
	bad.InitialGap = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero gap should fail")
	}
	bad = Fig2bDelay()
	bad.Attack.OffsetM = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero offset should fail")
	}
	bad = Fig2aDoS()
	bad.Attack.Window = attack.Window{Start: 10, End: 5}
	if err := bad.Validate(); err == nil {
		t.Fatal("bad window should fail")
	}
}

func TestScenarioValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		edit func(*Scenario)
	}{
		{"nan leader speed", func(s *Scenario) { s.LeaderSpeed = nan }},
		{"inf leader speed", func(s *Scenario) { s.LeaderSpeed = inf }},
		{"nan set speed", func(s *Scenario) { s.SetSpeed = nan }},
		{"inf set speed", func(s *Scenario) { s.SetSpeed = inf }},
		{"nan initial gap", func(s *Scenario) { s.InitialGap = nan }},
		{"inf initial gap", func(s *Scenario) { s.InitialGap = inf }},
		{"nan offset", func(s *Scenario) { s.Attack.OffsetM = nan }},
		{"inf offset", func(s *Scenario) { s.Attack.OffsetM = inf }},
		{"-inf offset", func(s *Scenario) { s.Attack.OffsetM = -inf }},
	}
	for _, tc := range cases {
		s := Fig2bDelay()
		tc.edit(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
		if _, err := Run(s); err == nil {
			t.Errorf("%s: Run accepted it", tc.name)
		}
	}
}

func TestAttackKindString(t *testing.T) {
	if NoAttack.String() != "none" || DoSAttack.String() != "dos" || DelayAttack.String() != "delay" {
		t.Fatal("kind strings")
	}
}

func TestBaselineRunNoAttackNoCollision(t *testing.T) {
	res, err := Run(Baseline(Fig2aDoS()))
	if err != nil {
		t.Fatal(err)
	}
	if res.CollisionAt >= 0 {
		t.Fatalf("collision at %d in clean run", res.CollisionAt)
	}
	if res.MinGap <= 0 {
		t.Fatalf("min gap %v", res.MinGap)
	}
	// No attack: detector must never fire (zero false positives).
	if res.DetectedAt != -1 {
		t.Fatalf("false detection at %d", res.DetectedAt)
	}
	if res.Accuracy.FalsePositives != 0 {
		t.Fatalf("false positives: %+v", res.Accuracy)
	}
	// The follower must end nearly stopped behind the stopped leader.
	if res.FinalFollowerSpeed > 1.5 {
		t.Fatalf("final follower speed %v", res.FinalFollowerSpeed)
	}
}

func TestFig2aDoSDetectedAt182(t *testing.T) {
	res, err := Run(Fig2aDoS())
	if err != nil {
		t.Fatal(err)
	}
	// Section 6.2: both attacks detected at k = 182.
	if res.DetectedAt != 182 {
		t.Fatalf("DetectedAt = %d, want 182", res.DetectedAt)
	}
	if res.Accuracy.FalsePositives != 0 || res.Accuracy.FalseNegatives != 0 {
		t.Fatalf("accuracy: %+v", res.Accuracy)
	}
	// Defense keeps the loop safe.
	if res.CollisionAt >= 0 {
		t.Fatalf("collision at %d despite defense", res.CollisionAt)
	}
	// Estimates must run for the whole attack window (182..300 inclusive,
	// 119 steps).
	if res.EstimateSteps != 119 {
		t.Fatalf("EstimateSteps = %d, want 119", res.EstimateSteps)
	}
	if res.RLSTime <= 0 {
		t.Fatal("RLS time not measured")
	}
}

func TestFig2bDelayDetectedAt182(t *testing.T) {
	res, err := Run(Fig2bDelay())
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectedAt != 182 {
		t.Fatalf("DetectedAt = %d, want 182", res.DetectedAt)
	}
	if res.CollisionAt >= 0 {
		t.Fatalf("collision at %d despite defense", res.CollisionAt)
	}
	if res.Accuracy.FalseNegatives != 0 {
		t.Fatalf("accuracy: %+v", res.Accuracy)
	}
}

func TestDoSCorruptsMeasurementsMassively(t *testing.T) {
	res, err := Run(Fig2aDoS())
	if err != nil {
		t.Fatal(err)
	}
	meas := res.Distance.Series(SeriesMeasured)
	truth := res.Distance.Series(SeriesTrue)
	// During the attack the reported distance departs wildly from truth.
	v, ok := meas.At(250)
	tv, _ := truth.At(250)
	if !ok {
		t.Fatal("missing measurement at 250")
	}
	if math.Abs(v-tv) < 30 {
		t.Fatalf("DoS corruption too small: |%v - %v|", v, tv)
	}
}

func TestEstimatesTrackTruthDuringAttack(t *testing.T) {
	for _, scen := range []Scenario{Fig2aDoS(), Fig2bDelay(), Fig3aDoS(), Fig3bDelay()} {
		res, err := Run(scen)
		if err != nil {
			t.Fatalf("%s: %v", scen.Name, err)
		}
		// The free-running RLS extrapolation should stay within a few
		// meters of truth on average over the ~2 minute attack.
		if res.EstimateDistRMSE <= 0 || res.EstimateDistRMSE > 25 {
			t.Fatalf("%s: distance RMSE %v out of band", scen.Name, res.EstimateDistRMSE)
		}
		if res.EstimateVelRMSE > 6 {
			t.Fatalf("%s: velocity RMSE %v out of band", scen.Name, res.EstimateVelRMSE)
		}
	}
}

func TestUndefendedDelayAttackDegradesSafety(t *testing.T) {
	defended, err := Run(Fig2bDelay())
	if err != nil {
		t.Fatal(err)
	}
	undefended, err := Run(Undefended(Fig2bDelay()))
	if err != nil {
		t.Fatal(err)
	}
	// The spoofed +6 m makes the undefended follower keep a smaller true
	// gap than the defended one — the attack's intent (Section 6.2).
	if undefended.MinGap >= defended.MinGap {
		t.Fatalf("undefended min gap %v should be below defended %v",
			undefended.MinGap, defended.MinGap)
	}
	if undefended.DetectedAt != -1 {
		t.Fatal("undefended run must not log detections")
	}
}

func TestUndefendedDoSDestabilizesFollowing(t *testing.T) {
	undefended, err := Run(Undefended(Fig2aDoS()))
	if err != nil {
		t.Fatal(err)
	}
	defended, err := Run(Fig2aDoS())
	if err != nil {
		t.Fatal(err)
	}
	// Garbage distances (~240 m) make the undefended controller speed up
	// toward a phantom far target while the real leader brakes: the true
	// gap at the end must be dangerously smaller than the defended one,
	// typically a collision.
	if undefended.MinGap >= defended.MinGap {
		t.Fatalf("undefended min gap %v should be below defended %v",
			undefended.MinGap, defended.MinGap)
	}
}

func TestChallengeSpikesAppearInMeasuredTrace(t *testing.T) {
	res, err := Run(Baseline(Fig2aDoS()))
	if err != nil {
		t.Fatal(err)
	}
	meas := res.Distance.Series(SeriesMeasured)
	for _, k := range []int{15, 50, 175} {
		v, ok := meas.At(k)
		if !ok || v != 0 {
			t.Fatalf("challenge spike missing at %d: %v", k, v)
		}
	}
}

func TestFig3ScenariosLeaderReaccelerates(t *testing.T) {
	res, err := Run(Baseline(Fig3aDoS()))
	if err != nil {
		t.Fatal(err)
	}
	sp := res.Speeds.Series(SeriesLeader)
	v140, _ := sp.At(140)
	v150, _ := sp.At(150)
	v299, _ := sp.At(299)
	if !(v150 < v140) {
		t.Fatalf("leader should decelerate until 150: %v vs %v", v150, v140)
	}
	if !(v299 > v150) {
		t.Fatalf("leader should have re-accelerated by 299: %v vs %v", v299, v150)
	}
}

func TestRunDeterminism(t *testing.T) {
	a, err := Run(Fig2aDoS())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Fig2aDoS())
	if err != nil {
		t.Fatal(err)
	}
	if a.MinGap != b.MinGap || a.DetectedAt != b.DetectedAt ||
		a.EstimateDistRMSE != b.EstimateDistRMSE {
		t.Fatal("same seed produced different results")
	}
	c := Fig2aDoS()
	c.Seed = 99
	cres, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if cres.MinGap == a.MinGap && cres.EstimateDistRMSE == a.EstimateDistRMSE {
		t.Fatal("different seeds produced identical results")
	}
}

func TestRandomScheduleStillDetects(t *testing.T) {
	// With a pseudo-random LFSR schedule, detection happens at the first
	// challenge instant at/after onset.
	s := Fig2aDoS()
	sched, err := prbs.NewLFSRSchedule(12, 7, 3, s.Steps)
	if err != nil {
		t.Fatal(err)
	}
	s.Schedule = sched
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	want := -1
	for k := s.Attack.Window.Start; k < s.Steps; k++ {
		if sched.Challenge(k) {
			want = k
			break
		}
	}
	if want == -1 {
		t.Skip("no challenge inside attack window for this seed")
	}
	if res.DetectedAt != want {
		t.Fatalf("DetectedAt = %d, want first in-window challenge %d", res.DetectedAt, want)
	}
}

func TestScenarioConstructorsShape(t *testing.T) {
	for _, s := range []Scenario{Fig2aDoS(), Fig2bDelay(), Fig3aDoS(), Fig3bDelay()} {
		if s.Steps != 301 {
			t.Fatalf("%s: steps %d", s.Name, s.Steps)
		}
		if math.Abs(s.LeaderSpeed-units.MphToMps(65)) > 1e-9 {
			t.Fatalf("%s: leader speed %v", s.Name, s.LeaderSpeed)
		}
		if math.Abs(s.SetSpeed-units.MphToMps(67)) > 1e-9 {
			t.Fatalf("%s: set speed %v", s.Name, s.SetSpeed)
		}
		if s.InitialGap != 100 {
			t.Fatalf("%s: gap %v", s.Name, s.InitialGap)
		}
		if !s.Defended {
			t.Fatalf("%s: must default to defended", s.Name)
		}
	}
}

func TestLeaderProfilesMatchPaper(t *testing.T) {
	if got := Fig2aDoS().LeaderProfile.Accel(100); got != -0.1082 {
		t.Fatalf("fig2 accel = %v", got)
	}
	p := Fig3aDoS().LeaderProfile
	if got := p.Accel(100); got != -0.1082 {
		t.Fatalf("fig3 early accel = %v", got)
	}
	if got := p.Accel(200); got != 0.012 {
		t.Fatalf("fig3 late accel = %v", got)
	}
}
