package lateral

import (
	"math"
	"testing"
)

// schurStable reports whether every eigenvalue of a lies strictly inside
// the unit circle: after m squarings ‖A^(2^m)‖_F ≥ ρ(A)^(2^m), so a
// Frobenius norm below 1 proves ρ(A) < 1, and for ρ(A) < 1 the power
// decays below 1 once 2^m outgrows the transient.
func schurStable(a [stateDim][stateDim]float64) bool {
	for m := 0; m < 16; m++ {
		a = mul(a, a)
	}
	s := 0.0
	for i := range a {
		s += dot(a[i], a[i])
	}
	return s < 1
}

// closedLoop returns A - b k.
func closedLoop(a [stateDim][stateDim]float64, b, k [stateDim]float64) [stateDim][stateDim]float64 {
	for i := range a {
		for j := range a[i] {
			a[i][j] -= b[i] * k[j]
		}
	}
	return a
}

// maxAbsDiff returns the largest |x[i][j] - y[i][j]| and the largest |y[i][j]|.
func maxAbsDiff(x, y [stateDim][stateDim]float64) (diff, yMax float64) {
	for i := range x {
		for j := range x[i] {
			diff = math.Max(diff, math.Abs(x[i][j]-y[i][j]))
			yMax = math.Max(yMax, math.Abs(y[i][j]))
		}
	}
	return diff, yMax
}

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
	// Zero speed rejected.
	if _, _, err := DefaultSedan().ContinuousMatrices(0); err == nil {
		t.Fatal("vx=0 should fail")
	}
	// e_y integrates e_y' and e_psi integrates e_psi'; steering drives
	// only the rates.
	if math.Float64bits(a[0][1]) != math.Float64bits(1) || math.Float64bits(a[2][3]) != math.Float64bits(1) {
		t.Fatal("integrator rows wrong")
	}
	if b[0] != 0 || b[2] != 0 || !(b[1] > 0 && b[3] > 0) {
		t.Fatalf("B = %v", b)
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
	if diff, max := maxAbsDiff(mul(a2, a2), a1); diff > 1e-3*(1+max) {
		t.Fatalf("discretization not consistent across step sizes: %v", diff)
	}
	bb := mulVec(a2, b2)
	for i := range bb {
		bb[i] += b2[i]
		if d := math.Abs(bb[i] - b1[i]); d > 1e-3*(1+math.Abs(b1[i])) {
			t.Fatalf("input discretization not consistent: B[%d] %v vs %v", i, bb[i], b1[i])
		}
	}
}

func TestOpenLoopHeadingErrorDrifts(t *testing.T) {
	// Without steering, an initial heading error grows the offset.
	m, err := NewModel(DefaultSedan(), 30, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	x := [stateDim]float64{0, 0, 0.05, 0}
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
	ctl, err := NewLKC(m)
	if err != nil {
		t.Fatal(err)
	}
	x := [stateDim]float64{0.8, 0, 0.02, 0}
	for k := 0; k < 500; k++ {
		x = m.Step(x, ctl.Steer(x))
	}
	if math.Abs(x[StateEy]) > 0.01 || math.Abs(x[StateEPsi]) > 0.005 {
		t.Fatalf("not centered after 10 s: ey=%v epsi=%v", x[StateEy], x[StateEPsi])
	}
}

func TestLKCClosedLoopStable(t *testing.T) {
	m, _ := NewModel(DefaultSedan(), 30, 0.02)
	ctl, _ := NewLKC(m)
	if !schurStable(closedLoop(m.A, m.B, ctl.k)) {
		t.Fatal("A - B K is not Schur stable")
	}
}

func TestLKCSaturation(t *testing.T) {
	m, _ := NewModel(DefaultSedan(), 30, 0.02)
	ctl, _ := NewLKC(m)
	for _, ey := range []float64{100, -100} {
		u := ctl.Steer([stateDim]float64{ey, 0, 0, 0})
		if math.Abs(math.Abs(u)-maxSteerRad) > 1e-12 {
			t.Fatalf("steer %v at e_y = %v, want saturated at %v", u, ey, maxSteerRad)
		}
	}
}

// TestLKCValidation: a plant the steering cannot stabilize has no LQR
// gain, so synthesis must fail rather than return one.
func TestLKCValidation(t *testing.T) {
	var m Model
	for i := range m.A {
		m.A[i][i] = 2
	}
	if _, err := NewLKC(&m); err == nil {
		t.Fatal("an unstable plant without steering authority should fail")
	}
}

func TestDLQRScalar(t *testing.T) {
	// x' = 2x + u, Q = 1, R = 1 embedded as the first of four states:
	// the scalar DARE p = 1 + 4p - 4p^2/(1+p) gives p^2 - 4p - 1 = 0,
	// so p = 2 + sqrt(5) and K = (R + B'PB)^-1 B'PA = 2p/(1+p).
	k, err := dlqr([stateDim][stateDim]float64{{2}}, [stateDim]float64{1}, [stateDim]float64{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := 2 + math.Sqrt(5)
	if want := 2 * p / (1 + p); math.Abs(k[0]-want) > 1e-9 {
		t.Fatalf("K = %v, want %v", k[0], want)
	}
	if k[1] != 0 || k[2] != 0 || k[3] != 0 {
		t.Fatalf("K = %v, want no feedback from the unweighted states", k)
	}
	// Closed loop strictly stable.
	if cl := 2 - k[0]; math.Abs(cl) >= 1 {
		t.Fatalf("closed loop = %v", cl)
	}
}

// doubleIntegrator embeds x' = [[1, dt], [0, 1]] x + [dt^2/2, dt] u in
// four states; the last two are inert.
func doubleIntegrator(dt float64) (a [stateDim][stateDim]float64, b [stateDim]float64) {
	a[0] = [stateDim]float64{1, dt}
	a[1] = [stateDim]float64{0, 1}
	return a, [stateDim]float64{dt * dt / 2, dt}
}

func TestDLQRStabilizesDoubleIntegrator(t *testing.T) {
	a, b := doubleIntegrator(0.1)
	k, err := dlqr(a, b, [stateDim]float64{10, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := closedLoop(a, b, k)
	if !schurStable(cl) {
		t.Fatal("A - B K is not Schur stable")
	}
	// Regulation: from a perturbed state the closed loop returns to zero.
	x := [stateDim]float64{5, -2}
	for i := 0; i < 400; i++ {
		x = mulVec(cl, x)
	}
	if math.Abs(x[0]) > 1e-6 || math.Abs(x[1]) > 1e-6 {
		t.Fatalf("state did not regulate: %v", x)
	}
}

func TestDLQRCostMonotoneInR(t *testing.T) {
	// Heavier control penalty must give a smaller gain magnitude.
	a, b := doubleIntegrator(0.1)
	q := [stateDim]float64{1, 1}
	kCheap, err := dlqr(a, b, q, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	kPricey, err := dlqr(a, b, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cheap, pricey := dot(kCheap, kCheap), dot(kPricey, kPricey); pricey >= cheap {
		t.Fatalf("gain should shrink with R: |K|^2 %v vs %v", pricey, cheap)
	}
}

func TestDLQRUnstabilizable(t *testing.T) {
	// Unstable mode with no control authority: iteration must not claim
	// convergence, even after P overflows.
	a := [stateDim][stateDim]float64{{2}, {0, 0.5}}
	b := [stateDim]float64{0, 1} // only the stable mode
	if _, err := dlqr(a, b, [stateDim]float64{1, 1, 1, 1}, 1); err == nil {
		t.Fatal("unstabilizable pair should fail")
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
	if math.Float64bits(a.MaxAbsEy) != math.Float64bits(b.MaxAbsEy) || a.DetectedAt != b.DetectedAt {
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
