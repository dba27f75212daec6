package lateral

import (
	"math"
	"testing"

	"safesense/internal/mat"
)

func TestBicycleParamsValidate(t *testing.T) {
	if err := DefaultSedan().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*BicycleParams){
		func(p *BicycleParams) { p.MassKg = 0 },
		func(p *BicycleParams) { p.YawInertia = -1 },
		func(p *BicycleParams) { p.LfM = 0 },
		func(p *BicycleParams) { p.CorneringRear = 0 },
	}
	for i, m := range mutations {
		p := DefaultSedan()
		m(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("mutation %d should fail", i)
		}
	}
}

func TestContinuousMatricesShape(t *testing.T) {
	a, b, err := DefaultSedan().ContinuousMatrices(30)
	if err != nil {
		t.Fatal(err)
	}
	if r, c := a.Dims(); r != 4 || c != 4 {
		t.Fatalf("A dims %dx%d", r, c)
	}
	if r, c := b.Dims(); r != 4 || c != 1 {
		t.Fatalf("B dims %dx%d", r, c)
	}
	// Zero speed rejected.
	if _, _, err := DefaultSedan().ContinuousMatrices(0); err == nil {
		t.Fatal("vx=0 should fail")
	}
	// e_y integrates e_y': A[0][1] = 1.
	if a.At(0, 1) != 1 {
		t.Fatal("offset integrator row wrong")
	}
}

func TestDiscretizeConsistency(t *testing.T) {
	// Two substep resolutions must agree closely (integration converged).
	p := DefaultSedan()
	a1, b1, err := p.Discretize(30, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	// Composing two 0.01 s steps must approximate one 0.02 s step.
	a2, b2, err := p.Discretize(30, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	aa := a2.Mul(a2)
	if !aa.EqualApprox(a1, 1e-3*(1+a1.MaxAbs())) {
		t.Fatal("discretization not consistent across step sizes")
	}
	bb := a2.Mul(b2).Add(b2)
	if !bb.EqualApprox(b1, 1e-3*(1+b1.MaxAbs())) {
		t.Fatal("input discretization not consistent")
	}
}

func TestOpenLoopHeadingErrorDrifts(t *testing.T) {
	// Without steering, an initial heading error grows the offset.
	m, err := NewModel(DefaultSedan(), 30, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0, 0, 0.05, 0}
	for k := 0; k < 100; k++ {
		x = m.Step(x, 0)
	}
	if x[StateEy] < 0.5 {
		t.Fatalf("offset after 2 s of 0.05 rad heading error = %v, want > 0.5", x[StateEy])
	}
}

func TestLKCCentersVehicle(t *testing.T) {
	m, err := NewModel(DefaultSedan(), 30, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewLKC(m, LKCConfig{})
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.8, 0, 0.02, 0}
	for k := 0; k < 500; k++ {
		x = m.Step(x, ctl.Steer(x))
	}
	if math.Abs(x[StateEy]) > 0.01 || math.Abs(x[StateEPsi]) > 0.005 {
		t.Fatalf("not centered after 10 s: ey=%v epsi=%v", x[StateEy], x[StateEPsi])
	}
}

func TestLKCClosedLoopStable(t *testing.T) {
	m, _ := NewModel(DefaultSedan(), 30, 0.02)
	ctl, _ := NewLKC(m, LKCConfig{})
	// A - B K spectral radius < 1.
	cl := m.A.Sub(m.B.Mul(ctl.k))
	if rho := mat.SpectralRadius(cl, 0); rho >= 1 {
		t.Fatalf("closed-loop spectral radius %v", rho)
	}
}

func TestLKCSaturation(t *testing.T) {
	m, _ := NewModel(DefaultSedan(), 30, 0.02)
	ctl, _ := NewLKC(m, LKCConfig{MaxSteerRad: 0.2})
	u := ctl.Steer([]float64{100, 0, 0, 0})
	if math.Abs(u) > 0.2+1e-12 {
		t.Fatalf("steer %v exceeds saturation", u)
	}
}

func TestLKCValidation(t *testing.T) {
	m, _ := NewModel(DefaultSedan(), 30, 0.02)
	if _, err := NewLKC(nil, LKCConfig{}); err == nil {
		t.Fatal("nil model should fail")
	}
	if _, err := NewLKC(m, LKCConfig{QDiag: []float64{1, 2}}); err == nil {
		t.Fatal("short QDiag should fail")
	}
	if _, err := NewLKC(m, LKCConfig{R: -1}); err == nil {
		t.Fatal("negative R should fail")
	}
}

func TestLaneKeepingCleanRun(t *testing.T) {
	s := DefaultScenario()
	s.SpoofOffsetM = 0
	s.Name = "clean"
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectedAt != -1 {
		t.Fatalf("false detection at %d", res.DetectedAt)
	}
	if res.DepartedAt != -1 {
		t.Fatalf("lane departure at %d in clean run", res.DepartedAt)
	}
	// Initial 0.3 m offset decays: final max bounded by the initial.
	if res.MaxAbsEy > 0.35 {
		t.Fatalf("max |ey| = %v", res.MaxAbsEy)
	}
}

func TestLaneKeepingSpoofUndefended(t *testing.T) {
	s := DefaultScenario()
	s.Defended = false
	s.Name = "undefended"
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	// The +0.8 m spoof steers the real vehicle ~0.8 m off center.
	if res.MaxAbsEy < 0.6 {
		t.Fatalf("spoof had no effect: max |ey| = %v", res.MaxAbsEy)
	}
}

func TestLaneKeepingSpoofDefended(t *testing.T) {
	res, err := Run(DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectedAt < 800 {
		t.Fatalf("detected at %d, before onset", res.DetectedAt)
	}
	if res.DetectedAt == -1 {
		t.Fatal("attack never detected")
	}
	// At 50 Hz the vehicle fully tracks the phantom offset within the
	// detection-latency window, so the run's *max* offset is latency-
	// dominated for both runs. The defense's value is recovery: after
	// detection the defended vehicle re-centers, while the undefended one
	// holds the spoofed offset to the end.
	undef := DefaultScenario()
	undef.Defended = false
	ures, err := Run(undef)
	if err != nil {
		t.Fatal(err)
	}
	settle := res.DetectedAt + 200 // 4 s after detection
	defEnd := maxAbsAfter(t, res, settle)
	undefEnd := maxAbsAfter(t, ures, settle)
	if defEnd > 0.25 {
		t.Fatalf("defended offset after recovery = %v, want re-centered", defEnd)
	}
	if undefEnd < 0.6 {
		t.Fatalf("undefended offset after %d = %v, want held near the spoof", settle, undefEnd)
	}
}

// maxAbsAfter returns the largest |truth e_y| at steps >= from.
func maxAbsAfter(t *testing.T, res *Result, from int) float64 {
	t.Helper()
	truth := res.Offset.Series("truth")
	if truth == nil {
		t.Fatal("missing truth series")
	}
	max := 0.0
	for i, k := range truth.T {
		if k >= from {
			if a := math.Abs(truth.Y[i]); a > max {
				max = a
			}
		}
	}
	return max
}

func TestLaneKeepingValidation(t *testing.T) {
	s := DefaultScenario()
	s.Steps = 0
	if _, err := Run(s); err == nil {
		t.Fatal("steps 0 should fail")
	}
	s = DefaultScenario()
	s.Schedule = nil
	if _, err := Run(s); err == nil {
		t.Fatal("nil schedule should fail")
	}
	s = DefaultScenario()
	s.AttackEnd = 10
	s.AttackStart = 20
	if _, err := Run(s); err == nil {
		t.Fatal("inverted window should fail")
	}
}

func TestLaneKeepingDeterminism(t *testing.T) {
	a, err := Run(DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxAbsEy != b.MaxAbsEy || a.DetectedAt != b.DetectedAt {
		t.Fatal("same seed differs")
	}
}

func TestScheduleUsable(t *testing.T) {
	// The default scenario's schedule must include challenges after the
	// attack onset for detection to be possible.
	s := DefaultScenario()
	found := false
	for k := s.AttackStart; k < s.Steps; k++ {
		if s.Schedule.Challenge(k) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no challenge after onset; scenario cannot detect")
	}
}
