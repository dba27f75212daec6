package mat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

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
