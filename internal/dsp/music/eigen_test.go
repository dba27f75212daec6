package music

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randHermitian(rng *rand.Rand, n int) []complex128 {
	a := make([]complex128, n*n)
	for i := range a {
		a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	h := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			h[i*n+j] = (a[i*n+j] + cmplx.Conj(a[j*n+i])) * 0.5
		}
	}
	return h
}

func randSym(rng *rand.Rand, n int) []float64 {
	a := make([]float64, n*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	s := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s[i*n+j] = (a[i*n+j] + a[j*n+i]) * 0.5
		}
	}
	return s
}

// eigenpairsHold reports whether every vecs[k] satisfies h·v = vals[k]·v
// and the vectors are orthonormal, all within tol — together the
// reconstruction h = V·diag(vals)·V^H.
func eigenpairsHold(h []complex128, n int, vals []float64, vecs []complex128, tol float64) bool {
	for k := 0; k < n; k++ {
		v := vecs[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			var hv complex128
			for j := 0; j < n; j++ {
				hv += h[i*n+j] * v[j]
			}
			if cmplx.Abs(hv-complex(vals[k], 0)*v[i]) > tol {
				return false
			}
		}
		for p := 0; p < n; p++ {
			var dot complex128
			for i := 0; i < n; i++ {
				dot += cmplx.Conj(vecs[p*n+i]) * v[i]
			}
			want := 0.0
			if p == k {
				want = 1
			}
			if cmplx.Abs(dot-complex(want, 0)) > 1e-6 {
				return false
			}
		}
	}
	return true
}

func TestEigenHermitianKnown(t *testing.T) {
	// [[2, i], [-i, 2]] has eigenvalues 1 and 3.
	h := []complex128{2, 1i, -1i, 2}
	vals, vecs, err := eigenHermitian(h, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-1) > 1e-8 || math.Abs(vals[1]-3) > 1e-8 {
		t.Fatalf("vals = %v, want [1 3]", vals)
	}
	if !eigenpairsHold(h, 2, vals, vecs, 1e-8) {
		t.Fatal("H v != lambda v")
	}
}

func TestEigenHermitianReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		h := randHermitian(rng, n)
		vals, vecs, err := eigenHermitian(h, n)
		if err != nil {
			return false
		}
		// Ascending eigenvalues.
		for i := 1; i < n; i++ {
			if vals[i] < vals[i-1] {
				return false
			}
		}
		return eigenpairsHold(h, n, vals, vecs, 1e-6*(1+maxAbs(h)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenHermitianDegenerate(t *testing.T) {
	// sigma^2 * I plus a rank-1 signal: the MUSIC covariance structure.
	// Noise eigenvalue 0.5 is (n-1)-fold degenerate.
	n := 5
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 0.7*float64(i))) // steering-like vector
	}
	h := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			h[i*n+j] = 2 * x[i] * cmplx.Conj(x[j])
		}
		h[i*n+i] += 0.5
	}
	vals, vecs, err := eigenHermitian(h, n)
	if err != nil {
		t.Fatal(err)
	}
	// n-1 eigenvalues at 0.5, one at 0.5 + 2*|x|^2 = 0.5 + 2n.
	for i := 0; i < n-1; i++ {
		if math.Abs(vals[i]-0.5) > 1e-7 {
			t.Fatalf("noise eigenvalue %d = %v, want 0.5", i, vals[i])
		}
	}
	if math.Abs(vals[n-1]-(0.5+2*float64(n))) > 1e-6 {
		t.Fatalf("signal eigenvalue = %v, want %v", vals[n-1], 0.5+2*float64(n))
	}
	// Noise eigenvectors must be orthogonal to the signal vector x.
	for k := 0; k < n-1; k++ {
		var dot complex128
		for i := 0; i < n; i++ {
			dot += cmplx.Conj(vecs[k*n+i]) * x[i]
		}
		if cmplx.Abs(dot) > 1e-6 {
			t.Fatalf("noise eigenvector %d not orthogonal to signal: |dot| = %v", k, cmplx.Abs(dot))
		}
	}
	// And mutually orthonormal eigenpairs.
	if !eigenpairsHold(h, n, vals, vecs, 1e-6*(1+maxAbs(h))) {
		t.Fatal("eigenpairs do not hold")
	}
}

func TestEigenHermitianRejectsBadInput(t *testing.T) {
	if _, _, err := eigenHermitian(make([]complex128, 6), 2); err == nil {
		t.Fatal("non-square should fail")
	}
	if _, _, err := eigenHermitian([]complex128{1, 2, 3, 4}, 2); err == nil {
		t.Fatal("non-Hermitian should fail")
	}
}

// TestEigenHermitianRejectsNonSymmetric covers the real-valued case that
// reaches jacobiEigen: a real matrix must be symmetric to within the
// Hermitian tolerance. Asymmetry at rounding level is accepted and
// averaged away by the exact symmetrization; anything larger is refused
// rather than silently symmetrized.
func TestEigenHermitianRejectsNonSymmetric(t *testing.T) {
	if _, _, err := eigenHermitian([]complex128{2, 1, 1 + 1e-6, 3}, 2); err == nil {
		t.Fatal("real matrix with 1e-6 asymmetry should fail")
	}
	vals, _, err := eigenHermitian([]complex128{2, 1, 1 + 1e-14, 3}, 2)
	if err != nil {
		t.Fatalf("rounding-level asymmetry rejected: %v", err)
	}
	// [[2,1],[1,3]] has eigenvalues (5 ∓ √5)/2.
	want := []float64{(5 - math.Sqrt(5)) / 2, (5 + math.Sqrt(5)) / 2}
	for k := range want {
		if math.Abs(vals[k]-want[k]) > 1e-12 {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
}

func TestIsHermitian(t *testing.T) {
	if !isHermitian([]complex128{2, 1 + 1i, 1 - 1i, 3}, 2, 1e-12) {
		t.Fatal("Hermitian matrix not detected")
	}
	if isHermitian([]complex128{2 + 1i, 1, 1, 3}, 2, 1e-12) {
		t.Fatal("matrix with complex diagonal passed")
	}
}

// symEigenpairsHold reports whether row k of vecs satisfies
// a·v = vals[k]·v and the rows are orthonormal, all within tol.
func symEigenpairsHold(a []float64, n int, vals, vecs []float64, tol float64) bool {
	for k := 0; k < n; k++ {
		v := vecs[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			av := 0.0
			for j := 0; j < n; j++ {
				av += a[i*n+j] * v[j]
			}
			if math.Abs(av-vals[k]*v[i]) > tol {
				return false
			}
		}
		for p := 0; p < n; p++ {
			dot := 0.0
			for i := 0; i < n; i++ {
				dot += vecs[p*n+i] * v[i]
			}
			want := 0.0
			if p == k {
				want = 1
			}
			if math.Abs(dot-want) > 1e-10 {
				return false
			}
		}
	}
	return true
}

func TestJacobiDiagonal(t *testing.T) {
	a := []float64{3, 0, 0, 0, 1, 0, 0, 0, 2}
	vals, vecs := jacobiEigen(append([]float64(nil), a...), 3)
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
	if !symEigenpairsHold(a, 3, vals, vecs, 1e-12) {
		t.Fatal("eigenvectors not orthonormal eigenpairs")
	}
}

func TestJacobiKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	vals, _ := jacobiEigen([]float64{2, 1, 1, 2}, 2)
	if math.Abs(vals[0]-1) > 1e-10 || math.Abs(vals[1]-3) > 1e-10 {
		t.Fatalf("vals = %v, want [1 3]", vals)
	}
}

func TestJacobiReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randSym(rng, n)
		vals, vecs := jacobiEigen(append([]float64(nil), a...), n)
		if !symEigenpairsHold(a, n, vals, vecs, 1e-8) {
			return false
		}
		// Ascending order.
		for i := 1; i < n; i++ {
			if vals[i] < vals[i-1] {
				return false
			}
		}
		// Trace preserved.
		sum, trace := 0.0, 0.0
		for i, v := range vals {
			sum += v
			trace += a[i*n+i]
		}
		return math.Abs(sum-trace) <= 1e-8*(1+math.Abs(trace))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// cofactorDet is the Laplace-expansion determinant of the n-by-n matrix
// a: slow, but an oracle independent of the Jacobi iteration.
func cofactorDet(a []float64, n int) float64 {
	if n == 1 {
		return a[0]
	}
	det, sign := 0.0, 1.0
	minor := make([]float64, (n-1)*(n-1))
	for j := 0; j < n; j++ {
		for r := 1; r < n; r++ {
			for c, mc := 0, 0; c < n; c++ {
				if c != j {
					minor[(r-1)*(n-1)+mc] = a[r*n+c]
					mc++
				}
			}
		}
		det += sign * a[j] * cofactorDet(minor, n-1)
		sign = -sign
	}
	return det
}

// TestJacobiDetConsistency: the product of eigenvalues equals the
// determinant for symmetric matrices.
func TestJacobiDetConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		a := randSym(rng, n)
		vals, _ := jacobiEigen(append([]float64(nil), a...), n)
		prod := 1.0
		for _, v := range vals {
			prod *= v
		}
		det := cofactorDet(a, n)
		return math.Abs(prod-det) <= 1e-7*(1+math.Abs(det))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
