// Package music implements the root-MUSIC super-resolution frequency
// estimator. The paper extracts the FMCW radar's beat frequencies with
// MATLAB's root MUSIC; this package reproduces that pipeline from scratch:
//
//  1. estimate an order-m sample covariance of the snapshot stream with
//     forward–backward averaging,
//  2. eigendecompose it (cyclic Jacobi on its real embedding),
//  3. form the noise-subspace polynomial D(z) = sum over noise eigenvectors
//     of V(z) and its conjugate-reciprocal,
//  4. root it (Durand–Kerner) and pick the k roots inside the unit circle
//     that lie closest to it; their angles are the normalized signal
//     frequencies.
//
// Matrices are flat row-major []complex128 / []float64 slices.
package music

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"sort"
)

// Config parameterizes the estimator.
type Config struct {
	// Order m is the covariance dimension (subarray length). It must
	// exceed NumSignals and be at most len(signal). Typical: 8–16.
	Order int
	// NumSignals is the assumed number of complex exponentials.
	NumSignals int
}

// Estimator estimates the frequencies of complex exponentials in noise.
type Estimator struct {
	cfg Config
}

// New validates the configuration and returns an Estimator.
func New(cfg Config) (*Estimator, error) {
	if cfg.NumSignals < 1 {
		return nil, fmt.Errorf("music: NumSignals must be >= 1, got %d", cfg.NumSignals)
	}
	if cfg.Order <= cfg.NumSignals {
		return nil, fmt.Errorf("music: Order (%d) must exceed NumSignals (%d)", cfg.Order, cfg.NumSignals)
	}
	return &Estimator{cfg: cfg}, nil
}

// Frequencies estimates the normalized angular frequencies (radians/sample,
// in (-pi, pi]) of the configured number of complex exponentials present in
// x. The result is sorted ascending.
func (e *Estimator) Frequencies(x []complex128) ([]float64, error) {
	m := e.cfg.Order
	if len(x) < 2*m {
		return nil, fmt.Errorf("music: need at least %d samples for order %d, got %d", 2*m, m, len(x))
	}
	r, err := Covariance(x, m)
	if err != nil {
		return nil, err
	}
	return e.FrequenciesFromCovariance(r)
}

// FrequenciesFromCovariance runs steps 2–4 on a precomputed order-m
// covariance matrix, flat row-major (m·m elements).
func (e *Estimator) FrequenciesFromCovariance(r []complex128) ([]float64, error) {
	m := e.cfg.Order
	k := e.cfg.NumSignals
	if len(r) != m*m {
		return nil, fmt.Errorf("music: covariance must be %dx%d", m, m)
	}
	_, vecs, err := eigenHermitian(r, m)
	if err != nil {
		return nil, err
	}
	// Noise subspace: eigenvectors of the m-k smallest eigenvalues, which
	// eigenHermitian returns first (ascending order).
	// Build the root-MUSIC polynomial
	//   D(z) = sum_{noise v} V_v(z) * conj(V_v(1/conj(z))),
	// with V_v(z) = sum_i conj(v[i]) z^i, so that on the unit circle
	// D(e^{jw}) = sum_v |v^H a(w)|^2 with a(w) the steering vector — the
	// MUSIC null spectrum, vanishing exactly at the signal frequencies.
	// The coefficient at lag j is c[j] = sum_v sum_i conj(v[i]) * v[i-j];
	// D has degree 2(m-1) and c[-j] = conj(c[j]).
	coeffs := make([]complex128, 2*m-1) // index j+m-1 holds lag j in [-(m-1), m-1]
	for col := 0; col < m-k; col++ {
		v := vecs[col*m : (col+1)*m]
		for j := -(m - 1); j <= m-1; j++ {
			var s complex128
			for i := 0; i < m; i++ {
				i2 := i - j
				if i2 < 0 || i2 >= m {
					continue
				}
				s += cmplx.Conj(v[i]) * v[i2]
			}
			coeffs[j+m-1] += s
		}
	}
	coeffs = trimZeros(coeffs)
	if len(coeffs) < 3 {
		return nil, errors.New("music: degenerate noise-subspace polynomial")
	}
	roots, err := polyRoots(coeffs)
	if err != nil {
		return nil, fmt.Errorf("music: rooting failed: %w", err)
	}
	// Roots come in conjugate-reciprocal pairs (z, 1/conj(z)). Keep roots
	// strictly inside (or on) the unit circle, then pick the k closest to
	// the circle; their angles are the frequencies.
	type cand struct {
		z    complex128
		dist float64
	}
	var cands []cand
	for _, z := range roots {
		a := cmplx.Abs(z)
		if a <= 1+1e-9 {
			cands = append(cands, cand{z, math.Abs(1 - a)})
		}
	}
	if len(cands) < k {
		return nil, fmt.Errorf("music: only %d in-circle roots for %d signals", len(cands), k)
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].dist < cands[b].dist })
	// De-duplicate near-coincident picks (a root exactly on the circle can
	// appear twice from the reciprocal pair).
	var freqs []float64
	for _, c := range cands {
		w := cmplx.Phase(c.z)
		if w <= -math.Pi {
			// A root on the negative real axis with a -0 imaginary part
			// has phase -pi; report it as +pi, inside (-pi, pi].
			w = math.Pi
		}
		dup := false
		for _, f := range freqs {
			if angDist(f, w) < 1e-4 {
				dup = true
				break
			}
		}
		if !dup {
			freqs = append(freqs, w)
			if len(freqs) == k {
				break
			}
		}
	}
	if len(freqs) < k {
		return nil, fmt.Errorf("music: found %d distinct frequencies, want %d", len(freqs), k)
	}
	sort.Float64s(freqs)
	return freqs, nil
}

func angDist(a, b float64) float64 {
	d := math.Mod(math.Abs(a-b), 2*math.Pi)
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}

// Covariance estimates the order-m sample covariance of x using overlapping
// snapshots with forward–backward averaging, the standard conditioning step
// for root-MUSIC with coherent or short data. The result is flat row-major
// (m·m elements).
func Covariance(x []complex128, m int) ([]complex128, error) {
	n := len(x)
	if m < 2 {
		return nil, fmt.Errorf("music: order must be >= 2, got %d", m)
	}
	if n < m {
		return nil, fmt.Errorf("music: %d samples < order %d", n, m)
	}
	r := make([]complex128, m*m)
	count := 0
	for s := 0; s+m <= n; s++ {
		snap := x[s : s+m]
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				r[i*m+j] += snap[i] * cmplx.Conj(snap[j])
			}
		}
		count++
	}
	inv := complex(1/float64(count), 0)
	for i := range r {
		r[i] *= inv
	}
	// Forward-backward averaging: R_fb = (R + J * conj(R) * J) / 2 with J
	// the exchange matrix.
	fb := make([]complex128, m*m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			fb[i*m+j] = (r[i*m+j] + cmplx.Conj(r[(m-1-i)*m+m-1-j])) / 2
		}
	}
	return fb, nil
}

// eigenHermitian computes the eigendecomposition of the n-by-n Hermitian
// matrix h (flat row-major). Eigenvalues are returned in ascending order;
// vecs[k*n:(k+1)*n] is the orthonormal eigenvector of vals[k].
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
func eigenHermitian(h []complex128, n int) (vals []float64, vecs []complex128, err error) {
	if len(h) != n*n {
		return nil, nil, fmt.Errorf("music: eigenHermitian of %d elements is not %dx%d", len(h), n, n)
	}
	if !isHermitian(h, n, 1e-9*(1+maxAbs(h))) {
		return nil, nil, errors.New("music: matrix is not Hermitian")
	}
	// Build the 2n-by-2n real embedding M and symmetrize it exactly,
	// element by element as (M + M^T)/2: M is symmetric in exact
	// arithmetic because H is Hermitian, but the residual asymmetry of a
	// computed H is rounded away so Jacobi sees an exactly symmetric
	// matrix.
	n2 := 2 * n
	sym := make([]float64, n2*n2)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			hij, hji := h[i*n+j], h[j*n+i]
			a := (real(hij) + real(hji)) * 0.5
			sym[i*n2+j] = a
			sym[(i+n)*n2+j+n] = a
			sym[i*n2+j+n] = (-imag(hij) + imag(hji)) * 0.5
			sym[(i+n)*n2+j] = (imag(hij) + -imag(hji)) * 0.5
		}
	}
	rvals, rvecs := jacobiEigen(sym, n2)
	// Every eigenvalue of H appears twice, consecutively after sorting.
	vals = make([]float64, n)
	vecs = make([]complex128, n*n)
	for k := 0; k < n; k++ {
		vals[k] = rvals[2*k]
	}
	// Extract one complex eigenvector per doubled eigenvalue. A real
	// eigenvector (x; y) maps to x + iy; the partner (-y; x) maps to
	// i*(x + iy), so each real pair spans a single complex direction, and a
	// d-dimensional complex eigenspace appears as 2d real vectors. For each
	// k, scan candidate real vectors whose eigenvalue matches vals[k] and
	// accept the first whose complex image survives Gram-Schmidt against
	// the vectors already extracted in the same (near-)degenerate cluster.
	v := make([]complex128, n)
	for k := 0; k < n; k++ {
		extracted := false
		for cand := 0; cand < n2 && !extracted; cand++ {
			if math.Abs(rvals[cand]-vals[k]) > 1e-6*(1+math.Abs(vals[k])) {
				continue
			}
			rv := rvecs[cand*n2 : (cand+1)*n2]
			for i := 0; i < n; i++ {
				v[i] = complex(rv[i], rv[i+n])
			}
			if vecNorm(v) < 1e-8 {
				continue
			}
			// Orthogonalize against previously accepted near-equal modes.
			for p := 0; p < k; p++ {
				if math.Abs(vals[p]-vals[k]) > 1e-6*(1+math.Abs(vals[k])) {
					continue
				}
				vp := vecs[p*n : (p+1)*n]
				var dot complex128
				for i := 0; i < n; i++ {
					dot += cmplx.Conj(vp[i]) * v[i]
				}
				for i := 0; i < n; i++ {
					v[i] -= dot * vp[i]
				}
			}
			if nv := vecNorm(v); nv > 1e-7 {
				for i := 0; i < n; i++ {
					vecs[k*n+i] = v[i] / complex(nv, 0)
				}
				extracted = true
			}
		}
		if !extracted {
			return nil, nil, fmt.Errorf("music: failed to extract eigenvector %d", k)
		}
	}
	return vals, vecs, nil
}

// isHermitian reports whether the n-by-n matrix h equals its conjugate
// transpose within tol.
func isHermitian(h []complex128, n int, tol float64) bool {
	for i := 0; i < n; i++ {
		if math.Abs(imag(h[i*n+i])) > tol {
			return false
		}
		for j := i + 1; j < n; j++ {
			if cmplx.Abs(h[i*n+j]-cmplx.Conj(h[j*n+i])) > tol {
				return false
			}
		}
	}
	return true
}

// maxAbs returns the largest element magnitude.
func maxAbs(h []complex128) float64 {
	max := 0.0
	for _, v := range h {
		if a := cmplx.Abs(v); a > max {
			max = a
		}
	}
	return max
}

func vecNorm(v []complex128) float64 {
	s := 0.0
	for _, x := range v {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return math.Sqrt(s)
}

// jacobiEigen computes the eigendecomposition of the n-by-n symmetric
// matrix a (flat row-major, overwritten) with the cyclic Jacobi method. It
// returns the eigenvalues in ascending order and vecs, whose row k
// (vecs[k*n:(k+1)*n]) is the orthonormal eigenvector of vals[k], so
// a = vecs^T * diag(vals) * vecs.
//
// Jacobi is slow for large matrices but unconditionally stable and exact
// enough for the covariance embeddings (order <= 64) root-MUSIC builds.
func jacobiEigen(a []float64, n int) (vals, vecs []float64) {
	// vt accumulates the rotations as the transpose of V: row i of vt is
	// column i of V, so each eigenvector ends up contiguous.
	vt := make([]float64, n*n)
	for i := 0; i < n; i++ {
		vt[i*n+i] = 1
	}
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// Stop once the off-diagonal Frobenius norm is negligible
		// against the largest element.
		off, max := 0.0, 0.0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := a[i*n+j]
				if i != j {
					off += v * v
				}
				if av := math.Abs(v); av > max {
					max = av
				}
			}
		}
		if math.Sqrt(off) <= 1e-14*(1+max) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a[p*n+q]
				if math.Abs(apq) <= 1e-300 {
					continue
				}
				app, aqq := a[p*n+p], a[q*n+q]
				// Compute the Jacobi rotation that annihilates apq.
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Apply the rotation G(p,q) two-sided to a (columns, then
				// rows) and accumulate it into V.
				for i := 0; i < n; i++ {
					aip, aiq := a[i*n+p], a[i*n+q]
					a[i*n+p] = c*aip - s*aiq
					a[i*n+q] = s*aip + c*aiq
				}
				rp, rq := a[p*n:(p+1)*n], a[q*n:(q+1)*n]
				for j := range rp {
					apj, aqj := rp[j], rq[j]
					rp[j] = c*apj - s*aqj
					rq[j] = s*apj + c*aqj
				}
				vp, vq := vt[p*n:(p+1)*n], vt[q*n:(q+1)*n]
				for i := range vp {
					vip, viq := vp[i], vq[i]
					vp[i] = c*vip - s*viq
					vq[i] = s*vip + c*viq
				}
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
		ps[i] = pair{a[i*n+i], i}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].val < ps[j].val })
	vals = make([]float64, n)
	vecs = make([]float64, n*n)
	for k, p := range ps {
		vals[k] = p.val
		copy(vecs[k*n:(k+1)*n], vt[p.col*n:(p.col+1)*n])
	}
	return vals, vecs
}

// Durand–Kerner iteration limits: the number of simultaneous-update
// sweeps, and the convergence threshold on the largest root update per
// sweep relative to the root magnitude.
const (
	rootsMaxIter = 3000
	rootsTol     = 1e-11
)

// polyRoots finds all complex roots of the polynomial
// c[0] + c[1] z + ... + c[n] z^n with the Durand–Kerner (Weierstrass)
// simultaneous iteration. The polynomial must have degree >= 1 and a
// nonzero leading coefficient c[n].
func polyRoots(c []complex128) ([]complex128, error) {
	n := len(c) - 1
	if n < 1 || c[n] == 0 {
		return nil, errors.New("music: polynomial needs degree >= 1 and a nonzero leading coefficient")
	}
	// Make monic.
	lead := c[n]
	mp := make([]complex128, len(c))
	for i, v := range c {
		mp[i] = v / lead
	}

	// Initial guesses: points on a circle of radius derived from the
	// Cauchy bound 1 + max|c_i| of the monic polynomial (every root lies
	// within it), at angles avoiding real-axis symmetry traps.
	bound := 0.0
	for _, v := range mp[:n] {
		if a := cmplx.Abs(v); a > bound {
			bound = a
		}
	}
	bound++
	roots := make([]complex128, n)
	for i := range roots {
		theta := 2*math.Pi*float64(i)/float64(n) + 0.4
		roots[i] = cmplx.Rect(bound*0.5+0.1, theta)
	}

	for iter := 0; iter < rootsMaxIter; iter++ {
		maxDelta := 0.0
		for i := range roots {
			num := horner(mp, roots[i])
			den := complex(1, 0)
			for j := range roots {
				if j != i {
					den *= roots[i] - roots[j]
				}
			}
			if den == 0 {
				// Perturb coincident estimates and continue.
				roots[i] += complex(1e-8, 1e-8)
				continue
			}
			delta := num / den
			roots[i] -= delta
			rel := cmplx.Abs(delta) / (1 + cmplx.Abs(roots[i]))
			if rel > maxDelta {
				maxDelta = rel
			}
		}
		if maxDelta < rootsTol {
			return roots, nil
		}
	}
	// Accept if residuals are small even without per-step convergence.
	for _, r := range roots {
		if cmplx.Abs(horner(mp, r)) > 1e-6*(1+math.Pow(cmplx.Abs(r), float64(n))) {
			return roots, fmt.Errorf("music: Durand-Kerner did not converge after %d iterations", rootsMaxIter)
		}
	}
	return roots, nil
}

// trimZeros drops the trailing (highest-order) zero coefficients of
// c[0] + c[1] z + ... + c[n] z^n, keeping at least one.
func trimZeros(c []complex128) []complex128 {
	for len(c) > 1 && c[len(c)-1] == 0 {
		c = c[:len(c)-1]
	}
	return c
}

// horner evaluates c[0] + c[1] z + ... + c[n] z^n.
func horner(c []complex128, z complex128) complex128 {
	var acc complex128
	for i := len(c) - 1; i >= 0; i-- {
		acc = acc*z + c[i]
	}
	return acc
}
