package mat

import (
	"errors"
	"math"
	"sort"
)

// EigenSym computes the eigendecomposition of the symmetric matrix a using
// the cyclic Jacobi method. It returns the eigenvalues in ascending order
// and a matrix whose columns are the corresponding orthonormal eigenvectors,
// so a = V * diag(vals) * V^T.
//
// Jacobi is slow for large matrices but unconditionally stable and exact
// enough for the covariance matrices (order <= 64) that root-MUSIC builds;
// internal/cmat reduces the Hermitian case to this routine via the standard
// real embedding.
func EigenSym(a *Dense) (vals []float64, vecs *Dense, err error) {
	n, c := a.Dims()
	if n != c {
		return nil, nil, errors.New("mat: EigenSym of non-square matrix")
	}
	if !a.IsSymmetric(1e-10 * (1 + a.MaxAbs())) {
		return nil, nil, errors.New("mat: EigenSym of non-symmetric matrix")
	}
	m := a.Clone()
	v := Identity(n)

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(m)
		if off <= 1e-14*(1+m.MaxAbs()) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if math.Abs(apq) <= 1e-300 {
					continue
				}
				app, aqq := m.At(p, p), m.At(q, q)
				// Compute the Jacobi rotation that annihilates apq.
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				cth := 1 / math.Sqrt(1+t*t)
				sth := t * cth
				applyJacobi(m, v, p, q, cth, sth)
			}
		}
	}

	// Extract eigenvalues and sort ascending with matching vectors.
	type pair struct {
		val float64
		col int
	}
	ps := make([]pair, n)
	for i := range ps {
		ps[i] = pair{m.At(i, i), i}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].val < ps[j].val })
	vals = make([]float64, n)
	vecs = NewDense(n, n)
	for k, p := range ps {
		vals[k] = p.val
		for i := 0; i < n; i++ {
			vecs.Set(i, k, v.At(i, p.col))
		}
	}
	return vals, vecs, nil
}

// applyJacobi applies the rotation G(p,q,theta) with cosine c and sine s to
// m (two-sided, preserving symmetry) and accumulates it into v.
func applyJacobi(m, v *Dense, p, q int, c, s float64) {
	n := m.rows
	for i := 0; i < n; i++ {
		mip, miq := m.At(i, p), m.At(i, q)
		m.Set(i, p, c*mip-s*miq)
		m.Set(i, q, s*mip+c*miq)
	}
	for j := 0; j < n; j++ {
		mpj, mqj := m.At(p, j), m.At(q, j)
		m.Set(p, j, c*mpj-s*mqj)
		m.Set(q, j, s*mpj+c*mqj)
	}
	for i := 0; i < n; i++ {
		vip, viq := v.At(i, p), v.At(i, q)
		v.Set(i, p, c*vip-s*viq)
		v.Set(i, q, s*vip+c*viq)
	}
}

func offDiagNorm(m *Dense) float64 {
	n := m.rows
	s := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				s += m.At(i, j) * m.At(i, j)
			}
		}
	}
	return math.Sqrt(s)
}

// SpectralRadius estimates the spectral radius (largest |eigenvalue|) of a
// general square matrix via Gelfand's formula rho(A) = lim ||A^k||^(1/k),
// evaluated by repeated squaring with normalization: after m squarings it
// reports ||A^(2^m)||_F^(1/2^m). Unlike plain power iteration this converges
// for complex eigenvalue pairs, which the closed-loop ACC dynamics have.
// It is the discrete-time stability check of the closed-loop tests.
func SpectralRadius(a *Dense, squarings int) float64 {
	n, c := a.Dims()
	if n != c {
		panic("mat: SpectralRadius of non-square matrix")
	}
	if squarings <= 0 {
		squarings = 40
	}
	b := a.Clone()
	logScale := 0.0 // accumulated log of normalization factors, weighted.
	k := 1.0        // current power of A represented by b*exp(logScale terms)
	for i := 0; i < squarings; i++ {
		nrm := b.FrobeniusNorm()
		if nrm == 0 {
			return 0
		}
		// Normalize to keep entries representable, tracking the factor:
		// A^k = nrm * b  =>  log||A^k|| contribution nrm at weight 1/k.
		logScale += math.Log(nrm) / k
		b = b.Scale(1 / nrm)
		b = b.Mul(b)
		k *= 2
	}
	nrm := b.FrobeniusNorm()
	if nrm == 0 {
		return 0
	}
	logScale += math.Log(nrm) / k
	return math.Exp(logScale)
}
