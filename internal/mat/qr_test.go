package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLeastSquaresExact(t *testing.T) {
	// Square nonsingular system: least squares == exact solve.
	a := NewDenseData(2, 2, []float64{2, 1, 1, 3})
	x, err := LeastSquares(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-10 || math.Abs(x[1]-3) > 1e-10 {
		t.Fatalf("LeastSquares = %v, want [1 3]", x)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2t + 1 through noiseless samples; exact recovery expected.
	n := 10
	a := NewDense(n, 2)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		tme := float64(i)
		a.Set(i, 0, tme)
		a.Set(i, 1, 1)
		b[i] = 2*tme + 1
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-10 || math.Abs(x[1]-1) > 1e-10 {
		t.Fatalf("fit = %v, want [2 1]", x)
	}
}

func TestLeastSquaresNormalEquationsProperty(t *testing.T) {
	// The LS residual must be orthogonal to the column space:
	// A^T (A x - b) = 0.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		m := n + 1 + rng.Intn(6)
		a := randDense(rng, m, n)
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			return true // singular random draw: skip
		}
		res := SubVec(a.MulVec(x), b)
		g := a.T().MulVec(res)
		return NormInf(g) <= 1e-8*(1+NormInf(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestQRRejectsWide(t *testing.T) {
	if _, err := NewQR(NewDense(2, 3)); err == nil {
		t.Fatal("QR of wide matrix should fail")
	}
}

func TestVecOps(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := Dot(x, y); math.Abs(got-32) > 1e-12 {
		t.Fatalf("Dot = %v", got)
	}
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Norm2 = %v", got)
	}
	if got := NormInf([]float64{-7, 2}); !feq(got, 7) {
		t.Fatalf("NormInf = %v", got)
	}
	if got := AddVec(x, y); !feq(got[0], 5) || !feq(got[2], 9) {
		t.Fatalf("AddVec = %v", got)
	}
	if got := SubVec(y, x); !feq(got[0], 3) || !feq(got[2], 3) {
		t.Fatalf("SubVec = %v", got)
	}
	z := []float64{1, 1, 1}
	Axpy(2, x, z)
	if !feq(z[0], 3) || !feq(z[2], 7) {
		t.Fatalf("Axpy = %v", z)
	}
}

func TestNorm2Overflow(t *testing.T) {
	// Norm2 must not overflow for huge components.
	big := 1e300
	got := Norm2([]float64{big, big})
	want := big * math.Sqrt2
	if math.IsInf(got, 0) || math.Abs(got-want) > 1e-10*want {
		t.Fatalf("Norm2 overflow handling: got %v, want %v", got, want)
	}
}

func TestCauchySchwarzProperty(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if n == 0 {
			return true
		}
		x, y := xs[:n], ys[:n]
		for _, v := range append(append([]float64{}, x...), y...) {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e150 {
				return true
			}
		}
		return math.Abs(Dot(x, y)) <= Norm2(x)*Norm2(y)*(1+1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
