package mat

import (
	"fmt"
	"math"
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

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	// Scaled accumulation avoids overflow for large components.
	scale, ssq := 0.0, 1.0
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			ssq = 1 + ssq*(scale/a)*(scale/a)
			scale = a
		} else {
			ssq += (a / scale) * (a / scale)
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormInf returns the maximum absolute component of x.
func NormInf(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
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
