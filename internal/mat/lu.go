package mat

import (
	"errors"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a matrix
// that is singular to working precision.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting: P*A = L*U.
type LU struct {
	lu  *Dense
	piv []int
}

// NewLU factorizes the square matrix a. It returns ErrSingular if a pivot
// vanishes.
func NewLU(a *Dense) (*LU, error) {
	n, c := a.Dims()
	if n != c {
		return nil, errors.New("mat: LU of non-square matrix")
	}
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: largest magnitude in column k at/below row k.
		p, maxv := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > maxv {
				p, maxv = i, v
			}
		}
		if maxv == 0 {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu.data[k*n+j], lu.data[p*n+j] = lu.data[p*n+j], lu.data[k*n+j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivVal := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivVal
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Set(i, j, lu.At(i, j)-m*lu.At(k, j))
			}
		}
	}
	return &LU{lu: lu, piv: piv}, nil
}

// SolveVec solves A*x = b for x.
func (f *LU) SolveVec(b []float64) ([]float64, error) {
	n := f.lu.rows
	if len(b) != n {
		return nil, errors.New("mat: LU solve dimension mismatch")
	}
	x := make([]float64, n)
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		d := f.lu.At(i, i)
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// Solve solves A*X = B column by column.
func (f *LU) Solve(b *Dense) (*Dense, error) {
	n := f.lu.rows
	if b.rows != n {
		return nil, errors.New("mat: LU solve dimension mismatch")
	}
	out := NewDense(n, b.cols)
	for j := 0; j < b.cols; j++ {
		col, err := f.SolveVec(b.Col(j))
		if err != nil {
			return nil, err
		}
		for i, v := range col {
			out.Set(i, j, v)
		}
	}
	return out, nil
}

// Inverse returns the inverse of a, or ErrSingular.
func Inverse(a *Dense) (*Dense, error) {
	f, err := NewLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(Identity(a.rows))
}
