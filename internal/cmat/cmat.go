// Package cmat implements the small complex dense linear algebra kernel
// required by the root-MUSIC beat-frequency estimator: complex matrix
// arithmetic and a Hermitian eigendecomposition obtained via the standard
// real-symmetric embedding handled by internal/mat.
package cmat

import (
	"fmt"
	"math"
	"math/cmplx"

	"safesense/internal/mat"
)

// Dense is a row-major dense complex matrix.
type Dense struct {
	rows, cols int
	data       []complex128
}

// NewDense returns an r-by-c zero complex matrix.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("cmat: invalid dimensions %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]complex128, r*c)}
}

// NewDenseData returns an r-by-c matrix backed by a copy of data (row-major).
func NewDenseData(r, c int, data []complex128) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("cmat: data length %d does not match %dx%d", len(data), r, c))
	}
	m := NewDense(r, c)
	copy(m.data, data)
	return m
}

// Dims returns the matrix dimensions.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) complex128 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v complex128) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("cmat: index (%d,%d) out of range for %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense { return NewDenseData(m.rows, m.cols, m.data) }

// Scale returns s*m.
func (m *Dense) Scale(s complex128) *Dense {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

// IsHermitian reports whether m equals its conjugate transpose within tol.
func (m *Dense) IsHermitian(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		if math.Abs(imag(m.At(i, i))) > tol {
			return false
		}
		for j := i + 1; j < m.cols; j++ {
			if cmplx.Abs(m.At(i, j)-cmplx.Conj(m.At(j, i))) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbs returns the largest element magnitude.
func (m *Dense) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.data {
		if a := cmplx.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// EigenHermitian computes the eigendecomposition of the Hermitian matrix h.
// Eigenvalues are returned in ascending order; the columns of the returned
// matrix are the corresponding orthonormal eigenvectors.
//
// The computation embeds H = A + iB into the real symmetric matrix
//
//	M = [ A  -B ]
//	    [ B   A ]
//
// whose spectrum is that of H with every eigenvalue doubled; a real
// eigenvector (x; y) of M maps to the complex eigenvector x + iy of H. The
// doubled eigenvalues are de-duplicated by taking every second one and
// re-orthonormalizing vectors that land in the same eigenspace.
func EigenHermitian(h *Dense) (vals []float64, vecs *Dense, err error) {
	n, c := h.Dims()
	if n != c {
		return nil, nil, fmt.Errorf("cmat: EigenHermitian of non-square %dx%d matrix", n, c)
	}
	if !h.IsHermitian(1e-9 * (1 + h.MaxAbs())) {
		return nil, nil, fmt.Errorf("cmat: matrix is not Hermitian")
	}
	// Build the 2n-by-2n real embedding.
	m := mat.NewDense(2*n, 2*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a := real(h.At(i, j))
			b := imag(h.At(i, j))
			m.Set(i, j, a)
			m.Set(i+n, j+n, a)
			m.Set(i, j+n, -b)
			m.Set(i+n, j, b)
		}
	}
	// Symmetrize exactly: the embedding is symmetric in exact arithmetic
	// because H is Hermitian, but round the residual asymmetry away so the
	// Jacobi routine's symmetry check passes.
	m = m.Add(m.T()).Scale(0.5)
	rvals, rvecs, err := mat.EigenSym(m)
	if err != nil {
		return nil, nil, err
	}
	// Every eigenvalue of H appears twice, consecutively after sorting.
	vals = make([]float64, n)
	vecs = NewDense(n, n)
	for k := 0; k < n; k++ {
		vals[k] = rvals[2*k]
	}
	// Extract one complex eigenvector per doubled eigenvalue. A real
	// eigenvector (x; y) maps to x + iy; the partner (-y; x) maps to
	// i*(x + iy), so each real pair spans a single complex direction, and a
	// d-dimensional complex eigenspace appears as 2d real columns. For each
	// k, scan candidate real columns whose eigenvalue matches vals[k] and
	// accept the first whose complex image survives Gram-Schmidt against
	// the vectors already extracted in the same (near-)degenerate cluster.
	for k := 0; k < n; k++ {
		extracted := false
		for cand := 0; cand < 2*n && !extracted; cand++ {
			if math.Abs(rvals[cand]-vals[k]) > 1e-6*(1+math.Abs(vals[k])) {
				continue
			}
			v := make([]complex128, n)
			for i := 0; i < n; i++ {
				v[i] = complex(rvecs.At(i, cand), rvecs.At(i+n, cand))
			}
			if vecNorm(v) < 1e-8 {
				continue
			}
			// Orthogonalize against previously accepted near-equal modes.
			for p := 0; p < k; p++ {
				if math.Abs(vals[p]-vals[k]) > 1e-6*(1+math.Abs(vals[k])) {
					continue
				}
				var dot complex128
				for i := 0; i < n; i++ {
					dot += cmplx.Conj(vecs.At(i, p)) * v[i]
				}
				for i := 0; i < n; i++ {
					v[i] -= dot * vecs.At(i, p)
				}
			}
			if nv := vecNorm(v); nv > 1e-7 {
				for i := 0; i < n; i++ {
					vecs.Set(i, k, v[i]/complex(nv, 0))
				}
				extracted = true
			}
		}
		if !extracted {
			return nil, nil, fmt.Errorf("cmat: failed to extract eigenvector %d", k)
		}
	}
	return vals, vecs, nil
}

func vecNorm(v []complex128) float64 {
	s := 0.0
	for _, x := range v {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return math.Sqrt(s)
}
