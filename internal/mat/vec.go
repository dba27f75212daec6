package mat

import (
	"fmt"
)

// Vector helpers. Vectors are plain []float64 so callers can build them with
// ordinary slice syntax; these functions provide the handful of BLAS-1 style
// operations the estimators need.

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// AddVec returns x + y as a new slice.
func AddVec(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic("mat: AddVec length mismatch")
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] + y[i]
	}
	return out
}

// SubVec returns x - y as a new slice.
func SubVec(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic("mat: SubVec length mismatch")
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] - y[i]
	}
	return out
}

// Axpy computes y += a*x in place.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mat: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += a * v
	}
}
