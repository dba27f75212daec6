package cmat

import (
	"fmt"
	"math/cmplx"
)

// The complex matrix arithmetic below is the test oracle for
// EigenHermitian (reconstruction, orthonormality, the MUSIC covariance
// structure); the estimator itself needs none of it. TestConjT,
// TestMulIdentity and TestMulVec check the oracle itself.

// Identity returns the n-by-n complex identity.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Add returns m + b.
func (m *Dense) Add(b *Dense) *Dense {
	m.sameDims(b, "Add")
	out := m.Clone()
	for i, v := range b.data {
		out.data[i] += v
	}
	return out
}

// Mul returns the product m*b.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("cmat: Mul dimension mismatch %dx%d * %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			orow := out.data[i*out.cols : (i+1)*out.cols]
			for j, bv := range brow {
				orow[j] += a * bv
			}
		}
	}
	return out
}

// MulVec returns m*x.
func (m *Dense) MulVec(x []complex128) []complex128 {
	if m.cols != len(x) {
		panic("cmat: MulVec dimension mismatch")
	}
	out := make([]complex128, m.rows)
	for i := 0; i < m.rows; i++ {
		var s complex128
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// ConjT returns the conjugate transpose (Hermitian adjoint) of m.
func (m *Dense) ConjT() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = cmplx.Conj(m.data[i*m.cols+j])
		}
	}
	return t
}

// EqualApprox reports element-wise agreement within tol (by magnitude of the
// difference).
func (m *Dense) EqualApprox(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if cmplx.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

func (m *Dense) sameDims(b *Dense, op string) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("cmat: %s dimension mismatch", op))
	}
}

// Outer returns x * y^H (conjugating y), the building block of sample
// covariance estimation.
func Outer(x, y []complex128) *Dense {
	m := NewDense(len(x), len(y))
	for i, xv := range x {
		for j, yv := range y {
			m.data[i*m.cols+j] = xv * cmplx.Conj(yv)
		}
	}
	return m
}
