package acc

import (
	"math"
	"testing"

	"safesense/internal/units"
)

// linearizedLoop expresses the spacing-mode car-following loop as the
// discrete-time LTI system of the paper's Section 3,
//
//	x_{k+1} = A x_k + B u_k,   y_k = C x_k,
//
// with state x = [d, vF, aF] (gap, follower speed, realized acceleration),
// input u = vL (leader speed), and output y = d (the radar's distance
// channel, C = [1 0 0]). The affine offset d0 is dropped by linearizing
// about the equilibrium gap d* = d0 + tau_h vL.
//
// Dynamics, with T the sample period, phi = exp(-T/Ti) the lower-level lag
// pole, and c = T/(tau_h K1) the CTH gain:
//
//	a_des = (c/T) (d - d0 + vL - (1 + tau_h) vF)
//	aF'   = phi aF + (1 - phi) K1 a_des
//	vF'   = vF + T aF'
//	d'    = d + T (vL - vF')
//
// It is the oracle the tests below hold the nonlinear controller to.
func linearizedLoop(cfg Config) (a [3][3]float64, b [3]float64, err error) {
	if err := cfg.Validate(); err != nil {
		return a, b, err
	}
	tSamp := cfg.SamplePeriod
	phi := math.Exp(-tSamp / cfg.TimeConstant)
	// a_des = g (d + vL - (1+tau_h) vF) with g = 1/(tau_h K1) per second;
	// inj is the lower-level injection of a_des into aF'.
	inj := (1 - phi) * cfg.Gain / (cfg.HeadwayTime * cfg.Gain)
	a = [3][3]float64{
		{1 - tSamp*tSamp*inj, -tSamp * (1 - tSamp*inj*(1+cfg.HeadwayTime)), -tSamp * tSamp * phi},
		{tSamp * inj, 1 - tSamp*inj*(1+cfg.HeadwayTime), tSamp * phi},
		{inj, -inj * (1 + cfg.HeadwayTime), phi},
	}
	b = [3]float64{tSamp * (1 - tSamp*inj), tSamp * inj, inj}
	return a, b, nil
}

// mulVec3 returns m x.
func mulVec3(m [3][3]float64, x [3]float64) (out [3]float64) {
	for i := range out {
		out[i] = m[i][0]*x[0] + m[i][1]*x[1] + m[i][2]*x[2]
	}
	return out
}

// mul3 returns x y.
func mul3(x, y [3][3]float64) (out [3][3]float64) {
	for i := range out {
		for j := range out[i] {
			out[i][j] = x[i][0]*y[0][j] + x[i][1]*y[1][j] + x[i][2]*y[2][j]
		}
	}
	return out
}

// linStep advances the linearized loop one sample under leader speed vL.
func linStep(a [3][3]float64, b, x [3]float64, vL float64) [3]float64 {
	x = mulVec3(a, x)
	for i := range x {
		x[i] += b[i] * vL
	}
	return x
}

// det3 is the 3x3 determinant (rule of Sarrus).
func det3(m [3][3]float64) float64 {
	return m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
		m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
		m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])
}

// schurStable reports whether every eigenvalue of a lies strictly inside
// the unit circle: after m squarings ‖A^(2^m)‖_F ≥ ρ(A)^(2^m), so a
// Frobenius norm below 1 proves ρ(A) < 1, and for ρ(A) < 1 the power
// decays below 1 once 2^m outgrows the transient.
func schurStable(a [3][3]float64) bool {
	for m := 0; m < 16; m++ {
		a = mul3(a, a)
	}
	s := 0.0
	for i := range a {
		for _, v := range a[i] {
			s += v * v
		}
	}
	return s < 1
}

func TestLinearizedClosedLoopStable(t *testing.T) {
	a, _, err := linearizedLoop(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if !schurStable(a) {
		t.Fatal("the paper's controller gains must yield a Schur-stable loop")
	}
}

func TestLinearizedClosedLoopObservableControllable(t *testing.T) {
	a, b, err := linearizedLoop(cfg())
	if err != nil {
		t.Fatal(err)
	}
	// Observable through the radar's distance channel — the property the
	// related work ([1] in the paper) requires for secure estimation:
	// the rows C, CA, CA^2 (C = [1 0 0]) span the state space.
	a2 := mul3(a, a)
	obs := [3][3]float64{{1, 0, 0}, a[0], a2[0]}
	if math.Abs(det3(obs)) < 1e-12 {
		t.Fatal("distance-observed loop must be observable")
	}
	// Controllable from the leader-speed input: B, AB, A^2 B span it.
	var ctrb [3][3]float64
	for j, col := range [][3]float64{b, mulVec3(a, b), mulVec3(a2, b)} {
		for i, v := range col {
			ctrb[i][j] = v
		}
	}
	if math.Abs(det3(ctrb)) < 1e-12 {
		t.Fatal("loop must be controllable from vL")
	}
}

func TestLinearizedEquilibriumMatchesCTH(t *testing.T) {
	// Drive the linearized system with constant vL; the gap must settle
	// at the CTH set point relative to the linearization offset: since
	// the affine d0 is dropped, the linear system settles at d = tau_h*vL.
	c := cfg()
	a, b, err := linearizedLoop(c)
	if err != nil {
		t.Fatal(err)
	}
	vL := 20.0
	var x [3]float64
	for k := 0; k < 2000; k++ {
		x = linStep(a, b, x, vL)
	}
	// Steady state of the linear part: d* - d0 = tau_h * vL + ... Verify
	// via the defining equations instead: vF* = vL and aF* = 0.
	if math.Abs(x[1]-vL) > 1e-6 {
		t.Fatalf("steady follower speed %v, want %v", x[1], vL)
	}
	if math.Abs(x[2]) > 1e-6 {
		t.Fatalf("steady acceleration %v, want 0", x[2])
	}
	// And the linear gap satisfies a_des = 0:
	// d* + vL - (1+tau_h) vF* = d0-term... with the affine part dropped,
	// d* = (1+tau_h) vL - vL = tau_h * vL.
	if math.Abs(x[0]-c.HeadwayTime*vL) > 1e-5 {
		t.Fatalf("steady linear gap %v, want %v", x[0], c.HeadwayTime*vL)
	}
}

func TestLinearizedMatchesNonlinearSimulation(t *testing.T) {
	// In spacing mode, away from saturations and standstill, the full
	// controller + kinematics should follow the linearized model closely.
	c := cfg()
	a, b, err := linearizedLoop(c)
	if err != nil {
		t.Fatal(err)
	}
	// Nonlinear loop.
	ctl, err := NewController(c)
	if err != nil {
		t.Fatal(err)
	}
	vL := units.MphToMps(60)
	// Start near the CTH equilibrium gap d0 + tau_h vL, perturbed.
	dPhys := c.StopDistance + c.HeadwayTime*vL + 3
	vF := vL - 0.5
	aF := 0.0
	// Linear state is the deviation-free absolute gap minus d0.
	x := [3]float64{dPhys - c.StopDistance, vF, aF}
	for k := 0; k < 40; k++ {
		cmd := ctl.Upper.Step(dPhys, vL-vF, vF, true)
		if cmd.Mode != SpacingControl {
			t.Fatalf("left spacing mode at %d", k)
		}
		aF = ctl.Lower.Step(cmd.ADes)
		vF += aF * c.SamplePeriod
		dPhys += (vL - vF) * c.SamplePeriod

		x = linStep(a, b, x, vL)
		if math.Abs((x[0]+c.StopDistance)-dPhys) > 0.75 {
			t.Fatalf("k=%d: linear gap %v vs nonlinear %v", k, x[0]+c.StopDistance, dPhys)
		}
		if math.Abs(x[1]-vF) > 0.5 {
			t.Fatalf("k=%d: linear vF %v vs nonlinear %v", k, x[1], vF)
		}
	}
}

func TestLinearizedRejectsBadConfig(t *testing.T) {
	bad := cfg()
	bad.HeadwayTime = 0
	if _, _, err := linearizedLoop(bad); err == nil {
		t.Fatal("invalid config should fail")
	}
}
