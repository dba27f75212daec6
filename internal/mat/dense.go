// Package mat implements the small dense real linear algebra kernel used by
// the safesense estimators, controllers, and plant models.
//
// It is deliberately minimal: row-major dense matrices, the LU
// factorization behind the Kalman and LQR inverses, and the spectral-radius
// stability check. All dimensions in this project are tiny, so clarity
// wins over blocking or SIMD tricks.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns an r-by-c zero matrix. It panics if r or c is not
// positive.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseData returns an r-by-c matrix backed by a copy of data, which must
// have length r*c and be laid out row-major.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), r, c))
	}
	m := NewDense(r, c)
	copy(m.data, data)
	return m
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Diag returns a square matrix with d on its diagonal.
func Diag(d []float64) *Dense {
	m := NewDense(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, v)
	}
	return m
}

// Dims returns the row and column counts.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	return NewDenseData(m.rows, m.cols, m.data)
}

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	m.check(i, 0)
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	m.check(0, j)
	out := make([]float64, m.rows)
	for i := range out {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetRow copies v into row i.
func (m *Dense) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic("mat: SetRow length mismatch")
	}
	copy(m.data[i*m.cols:(i+1)*m.cols], v)
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
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

// Sub returns m - b.
func (m *Dense) Sub(b *Dense) *Dense {
	m.sameDims(b, "Sub")
	out := m.Clone()
	for i, v := range b.data {
		out.data[i] -= v
	}
	return out
}

// Scale returns s*m.
func (m *Dense) Scale(s float64) *Dense {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

// Mul returns the matrix product m*b.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d * %dx%d", m.rows, m.cols, b.rows, b.cols))
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

// MulVec returns the matrix-vector product m*x.
func (m *Dense) MulVec(x []float64) []float64 {
	if m.cols != len(x) {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %dx%d * %d", m.rows, m.cols, len(x)))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		s := 0.0
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

func (m *Dense) sameDims(b *Dense, op string) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: %s dimension mismatch %dx%d vs %dx%d", op, m.rows, m.cols, b.rows, b.cols))
	}
}

// MaxAbs returns the largest absolute element value, or 0 for an all-zero
// matrix.
func (m *Dense) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Dense) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Trace returns the sum of diagonal elements. It panics for non-square m.
func (m *Dense) Trace() float64 {
	if m.rows != m.cols {
		panic("mat: Trace of non-square matrix")
	}
	s := 0.0
	for i := 0; i < m.rows; i++ {
		s += m.data[i*m.cols+i]
	}
	return s
}

// EqualApprox reports whether m and b agree element-wise within tol.
func (m *Dense) EqualApprox(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// String formats m for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "% .6g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
