package fft

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSignal(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			s += x[t] * cmplx.Rect(1, -2*math.Pi*float64(k*t)/float64(n))
		}
		out[k] = s
	}
	return out
}

func conjAll(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = cmplx.Conj(v)
	}
	return out
}

func realSignal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	return c
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 31, 64, 100} {
		x := randSignal(rng, n)
		got := Forward(x)
		want := naiveDFT(x)
		if e := maxErr(got, want); e > 1e-8 {
			t.Fatalf("n=%d: max error %v vs naive DFT", n, e)
		}
	}
}

func TestImpulseIsFlat(t *testing.T) {
	x := make([]complex128, 16)
	x[0] = 1
	spec := Forward(x)
	for k, v := range spec {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", k, v)
		}
	}
}

func TestSinusoidPeakBin(t *testing.T) {
	// exp(2*pi*i*5*t/64): all energy in bin 5.
	n := 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(1, 2*math.Pi*5*float64(i)/float64(n))
	}
	spec := Forward(x)
	for k, v := range spec {
		want := 0.0
		if k == 5 {
			want = float64(n)
		}
		if math.Abs(cmplx.Abs(v)-want) > 1e-9 {
			t.Fatalf("bin %d magnitude = %v, want %v", k, cmplx.Abs(v), want)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		x := randSignal(rng, n)
		// Inverse DFT through the forward one: x = conj(F(conj(X)))/N.
		back := Forward(conjAll(Forward(x)))
		for i := range back {
			back[i] = cmplx.Conj(back[i]) / complex(float64(n), 0)
		}
		return maxErr(back, x) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	// sum |x|^2 == (1/N) sum |X|^2.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(128)
		x := randSignal(rng, n)
		spec := Forward(x)
		var ex, es float64
		for _, v := range x {
			ex += real(v)*real(v) + imag(v)*imag(v)
		}
		for _, v := range spec {
			es += real(v)*real(v) + imag(v)*imag(v)
		}
		es /= float64(n)
		return math.Abs(ex-es) < 1e-8*(1+ex)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		x := randSignal(rng, n)
		y := randSignal(rng, n)
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a*x[i] + y[i]
		}
		left := Forward(sum)
		fx, fy := Forward(x), Forward(y)
		right := make([]complex128, n)
		for i := range right {
			right[i] = a*fx[i] + fy[i]
		}
		return maxErr(left, right) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestForwardDoesNotMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randSignal(rng, 33) // Bluestein path
	orig := append([]complex128{}, x...)
	_ = Forward(x)
	if maxErr(x, orig) != 0 {
		t.Fatal("Forward mutated input")
	}
	y := randSignal(rng, 32) // radix-2 path
	origY := append([]complex128{}, y...)
	_ = Forward(y)
	if maxErr(y, origY) != 0 {
		t.Fatal("Forward mutated input (radix-2)")
	}
}

func TestForwardInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 8, 12, 64} { // radix-2 and Bluestein
		x := randSignal(rng, n)
		want := naiveDFT(x)
		ForwardInPlace(x)
		if e := maxErr(x, want); e > 1e-8 {
			t.Fatalf("n=%d: max error %v vs naive DFT", n, e)
		}
	}
	x := randSignal(rng, 128)
	buf := make([]complex128, len(x))
	allocs := testing.AllocsPerRun(50, func() {
		copy(buf, x)
		ForwardInPlace(buf)
	})
	if allocs != 0 {
		t.Fatalf("ForwardInPlace(128): %v allocs/op, want 0", allocs)
	}
}

func TestEmptyInput(t *testing.T) {
	if Forward(nil) != nil {
		t.Fatal("Forward(nil) should be nil")
	}
}

func TestForwardReal(t *testing.T) {
	x := []float64{1, 0, -1, 0} // cos(pi*t/2): energy split between bins 1 and 3.
	spec := Forward(realSignal(x))
	if cmplx.Abs(spec[1]-2) > 1e-12 || cmplx.Abs(spec[3]-2) > 1e-12 {
		t.Fatalf("spectrum = %v", spec)
	}
	if cmplx.Abs(spec[0]) > 1e-12 || cmplx.Abs(spec[2]) > 1e-12 {
		t.Fatalf("leakage into DC/Nyquist: %v", spec)
	}
}

func TestHermitianSymmetryForRealInput(t *testing.T) {
	// Real input: X[n-k] == conj(X[k]).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(63)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		spec := Forward(realSignal(x))
		for k := 1; k < n; k++ {
			if cmplx.Abs(spec[n-k]-cmplx.Conj(spec[k])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// recurrenceRadix2 is the reference radix-2 kernel the plans replace: it
// recomputes the bit-reversal permutation and regenerates every stage's
// twiddles by the recurrence w *= wBase on each call. inverse selects the
// conjugate twiddles (no normalization).
func recurrenceRadix2(a []complex128, inverse bool) {
	n := len(a)
	if n == 1 {
		return
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			a[i], a[j] = a[j], a[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		wBase := cmplx.Rect(1, step)
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				u := a[start+k]
				v := a[start+k+half] * w
				a[start+k] = u + v
				a[start+k+half] = u - v
				w *= wBase
			}
		}
	}
}

// recurrenceBluestein is bluestein over recurrenceRadix2.
func recurrenceBluestein(x []complex128) []complex128 {
	n := len(x)
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		k2 := (int64(k) * int64(k)) % int64(2*n)
		chirp[k] = cmplx.Rect(1, -math.Pi*float64(k2)/float64(n))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	recurrenceRadix2(a, false)
	recurrenceRadix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	recurrenceRadix2(a, true)
	invM := complex(1/float64(m), 0)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		out[k] = a[k] * invM * chirp[k]
	}
	return out
}

// sameValues reports whether got and want are equal element by element
// under ==, with no tolerance, and the first index that differs.
//
//safesense:floatcmp-helper
func sameValues(got, want []complex128) (int, bool) {
	for i := range want {
		if got[i] != want[i] {
			return i, false
		}
	}
	return -1, len(got) == len(want)
}

// TestPlanMatchesRecurrence: the table-driven kernel reproduces the
// recurrence kernel bit for bit, forward and inverse, at every
// power-of-two length up to 4096, and so does Bluestein built on it.
func TestPlanMatchesRecurrence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for n := 2; n <= 4096; n <<= 1 {
		for _, inverse := range []bool{false, true} {
			x := randSignal(rng, n)
			want := append([]complex128{}, x...)
			recurrenceRadix2(want, inverse)
			planFor(n).transform(x, inverse)
			if i, ok := sameValues(x, want); !ok {
				t.Fatalf("n=%d inverse=%v: bin %d = %v, recurrence %v", n, inverse, i, x[i], want[i])
			}
		}
	}
	for _, n := range []int{3, 33, 100, 1000} {
		x := randSignal(rng, n)
		got, want := Forward(x), recurrenceBluestein(x)
		if i, ok := sameValues(got, want); !ok {
			t.Fatalf("Bluestein n=%d: bin %d = %v, recurrence %v", n, i, got[i], want[i])
		}
	}
}
