package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// cofactorDet is the Laplace-expansion determinant: slow, but an oracle
// independent of every factorization in the package.
func cofactorDet(a *Dense) float64 {
	n, _ := a.Dims()
	if n == 1 {
		return a.At(0, 0)
	}
	det, sign := 0.0, 1.0
	for j := 0; j < n; j++ {
		minor := NewDense(n-1, n-1)
		for r := 1; r < n; r++ {
			for c, mc := 0, 0; c < n; c++ {
				if c != j {
					minor.Set(r-1, mc, a.At(r, c))
					mc++
				}
			}
		}
		det += sign * a.At(0, j) * cofactorDet(minor)
		sign = -sign
	}
	return det
}

// TestEigenDetConsistency: the product of eigenvalues equals the
// determinant for symmetric matrices.
func TestEigenDetConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		a := randSym(rng, n)
		vals, _, err := EigenSym(a)
		if err != nil {
			return false
		}
		prod := 1.0
		for _, v := range vals {
			prod *= v
		}
		det := cofactorDet(a)
		return math.Abs(prod-det) <= 1e-7*(1+math.Abs(det))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSpectralRadiusSubmultiplicative: rho(A) <= ||A||_F for any matrix.
func TestSpectralRadiusSubmultiplicative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		a := randDense(rng, n, n)
		return SpectralRadius(a, 0) <= a.FrobeniusNorm()*(1+1e-9)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
