package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVecOps(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := Dot(x, y); math.Abs(got-32) > 1e-12 {
		t.Fatalf("Dot = %v", got)
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
		return math.Abs(Dot(x, y)) <= math.Sqrt(Dot(x, x)*Dot(y, y))*(1+1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
