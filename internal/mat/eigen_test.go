package mat

import (
	"math"
	"testing"
)

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
