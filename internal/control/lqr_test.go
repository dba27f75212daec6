package control

import (
	"math"
	"testing"

	"safesense/internal/mat"
)

func TestDLQRScalar(t *testing.T) {
	// x' = 2x + u, Q = 1, R = 1: scalar DARE p = 1 + 4p - 4p^2/(1+p)
	// => p^2 - 4p - 1 = 0 => p = 2 + sqrt(5).
	a := mat.NewDenseData(1, 1, []float64{2})
	b := mat.NewDenseData(1, 1, []float64{1})
	q := mat.Identity(1)
	r := mat.Identity(1)
	k, p, err := DLQR(a, b, q, r, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantP := 2 + math.Sqrt(5)
	if math.Abs(p.At(0, 0)-wantP) > 1e-9 {
		t.Fatalf("P = %v, want %v", p.At(0, 0), wantP)
	}
	// K = (R + B'PB)^-1 B'PA = 2p/(1+p).
	wantK := 2 * wantP / (1 + wantP)
	if math.Abs(k.At(0, 0)-wantK) > 1e-9 {
		t.Fatalf("K = %v, want %v", k.At(0, 0), wantK)
	}
	// Closed loop strictly stable.
	if cl := a.Sub(b.Mul(k)); math.Abs(cl.At(0, 0)) >= 1 {
		t.Fatalf("closed loop = %v", cl.At(0, 0))
	}
}

func TestDLQRStabilizesDoubleIntegrator(t *testing.T) {
	dt := 0.1
	a := mat.NewDenseData(2, 2, []float64{1, dt, 0, 1})
	b := mat.NewDenseData(2, 1, []float64{dt * dt / 2, dt})
	q := mat.Diag([]float64{10, 1})
	r := mat.Identity(1)
	k, _, err := DLQR(a, b, q, r, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl := a.Sub(b.Mul(k))
	if rho := mat.SpectralRadius(cl, 0); rho >= 1-1e-9 {
		t.Fatalf("closed-loop spectral radius %v", rho)
	}
	// Regulation: from a perturbed state the closed loop returns to zero.
	x := []float64{5, -2}
	for i := 0; i < 400; i++ {
		x = cl.MulVec(x)
	}
	if math.Abs(x[0]) > 1e-6 || math.Abs(x[1]) > 1e-6 {
		t.Fatalf("state did not regulate: %v", x)
	}
}

func TestDLQRCostMonotoneInR(t *testing.T) {
	// Heavier control penalty must give a smaller gain magnitude.
	a := mat.NewDenseData(2, 2, []float64{1, 0.1, 0, 1})
	b := mat.NewDenseData(2, 1, []float64{0.005, 0.1})
	q := mat.Identity(2)
	kCheap, _, err := DLQR(a, b, q, mat.Identity(1).Scale(0.1), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	kPricey, _, err := DLQR(a, b, q, mat.Identity(1).Scale(10), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if kPricey.FrobeniusNorm() >= kCheap.FrobeniusNorm() {
		t.Fatalf("gain should shrink with R: %v vs %v",
			kPricey.FrobeniusNorm(), kCheap.FrobeniusNorm())
	}
}

func TestDLQRValidation(t *testing.T) {
	a := mat.Identity(2)
	b := mat.NewDenseData(2, 1, []float64{0, 1})
	q := mat.Identity(2)
	r := mat.Identity(1)
	if _, _, err := DLQR(mat.NewDense(2, 3), b, q, r, 0, 0); err == nil {
		t.Fatal("non-square A should fail")
	}
	if _, _, err := DLQR(a, mat.NewDense(3, 1), q, r, 0, 0); err == nil {
		t.Fatal("bad B should fail")
	}
	if _, _, err := DLQR(a, b, mat.Identity(3), r, 0, 0); err == nil {
		t.Fatal("bad Q should fail")
	}
	if _, _, err := DLQR(a, b, q, mat.Identity(2), 0, 0); err == nil {
		t.Fatal("bad R should fail")
	}
	nonSym := mat.NewDenseData(2, 2, []float64{1, 2, 3, 1})
	if _, _, err := DLQR(a, b, nonSym, r, 0, 0); err == nil {
		t.Fatal("non-symmetric Q should fail")
	}
}

func TestDLQRUnstabilizable(t *testing.T) {
	// Unstable mode with no control authority: iteration must not claim
	// convergence.
	a := mat.Diag([]float64{2, 0.5})
	b := mat.NewDenseData(2, 1, []float64{0, 1}) // only the stable mode
	q := mat.Identity(2)
	r := mat.Identity(1)
	if _, _, err := DLQR(a, b, q, r, 500, 0); err == nil {
		t.Fatal("unstabilizable pair should fail")
	}
}
