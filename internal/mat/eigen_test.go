package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSym(rng *rand.Rand, n int) *Dense {
	a := randDense(rng, n, n)
	return a.Add(a.T()).Scale(0.5)
}

func TestEigenSymDiagonal(t *testing.T) {
	vals, vecs, err := EigenSym(Diag([]float64{3, 1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
	// Eigenvectors must be orthonormal.
	if !vecs.T().Mul(vecs).EqualApprox(Identity(3), 1e-10) {
		t.Fatal("V not orthonormal")
	}
}

func TestEigenSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	vals, _, err := EigenSym(NewDenseData(2, 2, []float64{2, 1, 1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-1) > 1e-10 || math.Abs(vals[1]-3) > 1e-10 {
		t.Fatalf("vals = %v, want [1 3]", vals)
	}
}

func TestEigenSymReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randSym(rng, n)
		vals, vecs, err := EigenSym(a)
		if err != nil {
			return false
		}
		// A == V * diag(vals) * V^T
		rec := vecs.Mul(Diag(vals)).Mul(vecs.T())
		if !rec.EqualApprox(a, 1e-8*(1+a.MaxAbs())) {
			return false
		}
		// Ascending order.
		for i := 1; i < n; i++ {
			if vals[i] < vals[i-1] {
				return false
			}
		}
		// Trace preserved.
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		return math.Abs(sum-a.Trace()) <= 1e-8*(1+math.Abs(a.Trace()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenSymRejectsNonSymmetric(t *testing.T) {
	if _, _, err := EigenSym(NewDenseData(2, 2, []float64{1, 2, 3, 4})); err == nil {
		t.Fatal("expected error for non-symmetric input")
	}
	if _, _, err := EigenSym(NewDense(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestSpectralRadiusDiagonal(t *testing.T) {
	a := Diag([]float64{0.5, -0.9, 0.2})
	if got := SpectralRadius(a, 0); math.Abs(got-0.9) > 1e-6 {
		t.Fatalf("SpectralRadius = %v, want 0.9", got)
	}
}

func TestSpectralRadiusRotation(t *testing.T) {
	// Scaled rotation: complex eigenvalues of magnitude r.
	r := 0.8
	th := 0.7
	a := NewDenseData(2, 2, []float64{
		r * math.Cos(th), -r * math.Sin(th),
		r * math.Sin(th), r * math.Cos(th),
	})
	if got := SpectralRadius(a, 0); math.Abs(got-r) > 1e-6 {
		t.Fatalf("SpectralRadius = %v, want %v", got, r)
	}
}

func TestSpectralRadiusZeroAndNilpotent(t *testing.T) {
	if got := SpectralRadius(NewDense(3, 3), 0); got != 0 {
		t.Fatalf("SpectralRadius(0) = %v", got)
	}
	// Nilpotent: all eigenvalues zero.
	n := NewDenseData(2, 2, []float64{0, 1, 0, 0})
	if got := SpectralRadius(n, 0); got > 1e-6 {
		t.Fatalf("SpectralRadius(nilpotent) = %v, want ~0", got)
	}
}
