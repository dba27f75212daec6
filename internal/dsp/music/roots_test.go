package music

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// fromRoots builds the low-order-first coefficients of the monic
// polynomial with the given roots — the oracle the root-finder tests
// recover known roots from.
func fromRoots(roots ...complex128) []complex128 {
	c := []complex128{1}
	for _, r := range roots {
		next := make([]complex128, len(c)+1)
		for i, v := range c {
			next[i+1] += v
			next[i] -= r * v
		}
		c = next
	}
	return c
}

// sortByArg orders roots lexicographically by (re, im) so two root
// sets can be compared element-wise. The != here is a sort tie-break,
// not an approximate-equality check.
//
//safesense:floatcmp-helper
func sortByArg(rs []complex128) {
	sort.Slice(rs, func(i, j int) bool {
		if real(rs[i]) != real(rs[j]) {
			return real(rs[i]) < real(rs[j])
		}
		return imag(rs[i]) < imag(rs[j])
	})
}

func matchRoots(t *testing.T, got, want []complex128, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d roots, want %d", len(got), len(want))
	}
	used := make([]bool, len(want))
	for _, g := range got {
		best, bestd := -1, math.Inf(1)
		for i, w := range want {
			if used[i] {
				continue
			}
			if d := cmplx.Abs(g - w); d < bestd {
				best, bestd = i, d
			}
		}
		if best < 0 || bestd > tol {
			t.Fatalf("root %v unmatched (closest distance %v, want %v)", g, bestd, want)
		}
		used[best] = true
	}
}

func TestHorner(t *testing.T) {
	// p(z) = 1 + 2z + 3z^2 at z = 2 -> 1 + 4 + 12 = 17.
	p := []complex128{1, 2, 3}
	if got := horner(p, 2); cmplx.Abs(got-17) > 1e-12 {
		t.Fatalf("horner = %v", got)
	}
	if got := horner(p, 0); cmplx.Abs(got-1) > 1e-12 {
		t.Fatalf("horner(0) = %v", got)
	}
}

func TestFromRootsEvalZero(t *testing.T) {
	roots := []complex128{2, -1, 3i}
	p := fromRoots(roots...)
	for _, r := range roots {
		if cmplx.Abs(horner(p, r)) > 1e-10 {
			t.Fatalf("p(%v) = %v, want 0", r, horner(p, r))
		}
	}
	if len(p) != 4 {
		t.Fatalf("degree = %d", len(p)-1)
	}
}

func TestTrimZeros(t *testing.T) {
	if got := trimZeros([]complex128{1, 2, 0, 0}); len(got) != 2 {
		t.Fatalf("trimZeros left degree %d, want 1", len(got)-1)
	}
	if got := trimZeros([]complex128{0, 0}); len(got) != 1 {
		t.Fatalf("trimZeros of the zero polynomial left %d coefficients, want 1", len(got))
	}
}

func TestRootsQuadratic(t *testing.T) {
	// z^2 - 3z + 2 = (z-1)(z-2).
	rs, err := polyRoots([]complex128{2, -3, 1})
	if err != nil {
		t.Fatal(err)
	}
	matchRoots(t, rs, []complex128{1, 2}, 1e-8)
}

func TestRootsNonMonic(t *testing.T) {
	// 2z^2 - 6z + 4 = 2(z-1)(z-2): the leading coefficient is divided out.
	rs, err := polyRoots([]complex128{4, -6, 2})
	if err != nil {
		t.Fatal(err)
	}
	matchRoots(t, rs, []complex128{1, 2}, 1e-8)
}

func TestRootsComplexConjugatePair(t *testing.T) {
	// z^2 + 1 = (z-i)(z+i).
	rs, err := polyRoots([]complex128{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	matchRoots(t, rs, []complex128{1i, -1i}, 1e-8)
}

func TestRootsUnitCircle(t *testing.T) {
	// z^4 - 1: the fourth roots of unity — the structure root-MUSIC sees.
	rs, err := polyRoots([]complex128{-1, 0, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	matchRoots(t, rs, []complex128{1, -1, 1i, -1i}, 1e-8)
}

func TestRootsRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		want := make([]complex128, n)
		for i := range want {
			// Well-separated random roots in an annulus.
			r := 0.3 + 2*rng.Float64()
			th := 2 * math.Pi * rng.Float64()
			want[i] = cmplx.Rect(r, th)
		}
		// Reject nearly-coincident draws; DK converges slowly there.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if cmplx.Abs(want[i]-want[j]) < 0.15 {
					return true
				}
			}
		}
		got, err := polyRoots(fromRoots(want...))
		if err != nil {
			return false
		}
		sortByArg(got)
		sortByArg(want)
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRootsDegenerateInputs(t *testing.T) {
	if _, err := polyRoots([]complex128{5}); err == nil {
		t.Fatal("constant polynomial should fail")
	}
	if _, err := polyRoots(nil); err == nil {
		t.Fatal("zero polynomial should fail")
	}
	if _, err := polyRoots([]complex128{1, 0}); err == nil {
		t.Fatal("zero leading coefficient should fail")
	}
}

func TestRootsHighDegree(t *testing.T) {
	// Degree-12 polynomial with roots on two circles, similar in size to
	// the root-MUSIC polynomial for a covariance of order 7.
	var want []complex128
	for k := 0; k < 6; k++ {
		th := 2 * math.Pi * float64(k) / 6
		want = append(want, cmplx.Rect(0.8, th+0.2), cmplx.Rect(1.25, th+0.5))
	}
	got, err := polyRoots(fromRoots(want...))
	if err != nil {
		t.Fatal(err)
	}
	matchRoots(t, got, want, 1e-5)
}
