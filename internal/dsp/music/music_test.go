package music

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"safesense/internal/noise"
)

func cisTone(n int, w float64) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(1, w*float64(i))
	}
	return x
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Order: 4, NumSignals: 0}); err == nil {
		t.Fatal("NumSignals 0 should fail")
	}
	if _, err := New(Config{Order: 2, NumSignals: 2}); err == nil {
		t.Fatal("Order <= NumSignals should fail")
	}
	if _, err := New(Config{Order: 8, NumSignals: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleToneNoiseless(t *testing.T) {
	est, err := New(Config{Order: 8, NumSignals: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{0.3, 1.1, -0.7, 2.5} {
		x := cisTone(128, w)
		got, err := est.Frequencies(x)
		if err != nil {
			t.Fatalf("w=%v: %v", w, err)
		}
		if math.Abs(got[0]-w) > 1e-5 {
			t.Fatalf("w=%v: estimated %v", w, got[0])
		}
	}
}

func TestSingleToneInNoise(t *testing.T) {
	est, _ := New(Config{Order: 10, NumSignals: 1})
	src := noise.NewSource(17)
	w := 0.9
	x := src.AddAWGN(cisTone(256, w), 15)
	got, err := est.Frequencies(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-w) > 0.02 {
		t.Fatalf("estimated %v, want %v", got[0], w)
	}
}

func TestTwoTonesResolved(t *testing.T) {
	// Two tones closer than an FFT bin of the same data length:
	// MUSIC's super-resolution property.
	n := 256
	w1, w2 := 0.50, 0.62 // separation 0.12 rad/sample
	x := make([]complex128, n)
	t1, t2 := cisTone(n, w1), cisTone(n, w2)
	for i := range x {
		x[i] = t1[i] + 0.8*t2[i]
	}
	src := noise.NewSource(5)
	x = src.AddAWGN(x, 25)
	est, _ := New(Config{Order: 12, NumSignals: 2})
	got, err := est.Frequencies(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-w1) > 0.03 || math.Abs(got[1]-w2) > 0.03 {
		t.Fatalf("estimated %v, want [%v %v]", got, w1, w2)
	}
}

func TestFrequenciesSorted(t *testing.T) {
	n := 256
	x := make([]complex128, n)
	a, b := cisTone(n, -1.2), cisTone(n, 0.8)
	for i := range x {
		x[i] = a[i] + b[i]
	}
	est, _ := New(Config{Order: 10, NumSignals: 2})
	got, err := est.Frequencies(x)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] > got[1] {
		t.Fatalf("not sorted: %v", got)
	}
	if math.Abs(got[0]-(-1.2)) > 1e-3 || math.Abs(got[1]-0.8) > 1e-3 {
		t.Fatalf("estimated %v", got)
	}
}

func TestTooFewSamples(t *testing.T) {
	est, _ := New(Config{Order: 8, NumSignals: 1})
	if _, err := est.Frequencies(cisTone(10, 0.5)); err == nil {
		t.Fatal("short input should fail")
	}
}

func TestCovarianceProperties(t *testing.T) {
	src := noise.NewSource(9)
	x := src.ComplexNoiseVec(200, 1)
	r, err := Covariance(x, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !isHermitian(r, 6, 1e-10) {
		t.Fatal("covariance not Hermitian")
	}
	// Diagonal ~ signal power.
	for i := 0; i < 6; i++ {
		d := real(r[i*6+i])
		if d < 0.5 || d > 1.6 {
			t.Fatalf("diagonal %d = %v, want ~1", i, d)
		}
	}
}

func TestCovarianceHermitianProperty(t *testing.T) {
	// Forward–backward averaging keeps any sample covariance Hermitian.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(8)
		x := make([]complex128, m+rng.Intn(40))
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		r, err := Covariance(x, m)
		return err == nil && isHermitian(r, m, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCovarianceValidation(t *testing.T) {
	if _, err := Covariance(cisTone(10, 1), 1); err == nil {
		t.Fatal("order < 2 should fail")
	}
	if _, err := Covariance(cisTone(3, 1), 6); err == nil {
		t.Fatal("too few samples should fail")
	}
}

func TestMUSICBeatsFFTResolution(t *testing.T) {
	// Deterministic check of the super-resolution claim that motivates the
	// paper's use of root-MUSIC: two tones separated by ~half an FFT bin
	// are merged by the periodogram (one local max) but resolved by MUSIC.
	n := 128
	dw := math.Pi / float64(n) // half the FFT bin spacing 2*pi/n
	w1 := 0.7
	w2 := w1 + dw
	x := make([]complex128, n)
	t1, t2 := cisTone(n, w1), cisTone(n, w2)
	for i := range x {
		x[i] = t1[i] + t2[i]
	}
	est, _ := New(Config{Order: 16, NumSignals: 2})
	got, err := est.Frequencies(x)
	if err != nil {
		t.Fatal(err)
	}
	sep := got[1] - got[0]
	if sep < dw/2 || sep > 2*dw {
		t.Fatalf("MUSIC separation = %v, want ~%v", sep, dw)
	}
	mid := (got[0] + got[1]) / 2
	if math.Abs(mid-(w1+w2)/2) > 0.01 {
		t.Fatalf("MUSIC midpoint = %v, want %v", mid, (w1+w2)/2)
	}
}
