package spectrum

import (
	"errors"
	"math"
	"math/cmplx"
	"testing"

	"safesense/internal/dsp/fft"
	"safesense/internal/dsp/window"
	"safesense/internal/noise"
)

func tone(n int, freq, fs float64) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(1, 2*math.Pi*freq*float64(i)/fs)
	}
	return x
}

// rect is the all-ones (rectangular) window.
func rect(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// exact reports exact equality: the checks using it pin results that are
// exact in IEEE-754 (integer-valued spectra, bin frequencies, an unmodified
// input).
//
//safesense:floatcmp-helper
func exact(a, b float64) bool { return a == b }

// dominant runs the kernel with a fresh scratch buffer.
func dominant(x []complex128, w []float64, fs float64) (float64, error) {
	return DominantFrequency(x, w, WindowPower(w), fs, make([]complex128, len(x)))
}

func TestDominantFrequencyExactBin(t *testing.T) {
	fs := 1000.0
	x := tone(256, 125, fs) // bin 32 exactly
	got, err := dominant(x, rect(256), fs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-125) > 1e-6 {
		t.Fatalf("freq = %v, want 125", got)
	}
}

func TestDominantFrequencyOffBin(t *testing.T) {
	// Off-bin tones: parabolic interpolation should get within a fraction
	// of a bin (bin width = fs/n = 3.90625 Hz), where the raw peak bin is
	// up to half a bin off.
	fs := 1000.0
	df := fs / 256
	for _, f := range []float64{127.3, 126.9, 128.5, -61.7} {
		got, err := dominant(tone(256, f, fs), window.Hann(256), fs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-f) > 0.1*df {
			t.Fatalf("freq = %v, want %v within a tenth of a bin", got, f)
		}
	}
}

func TestDominantFrequencyNegative(t *testing.T) {
	fs := 1000.0
	x := tone(256, -250, fs)
	got, err := dominant(x, rect(256), fs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-(-250)) > 1e-6 {
		t.Fatalf("freq = %v, want -250", got)
	}
}

func TestDominantFrequencyStrongestOfTwo(t *testing.T) {
	fs := 1000.0
	n := 512
	weak, strong := tone(n, 100, fs), tone(n, 300, fs)
	x := make([]complex128, n)
	for i := range x {
		x[i] = 0.5*weak[i] + strong[i]
	}
	got, err := dominant(x, window.Hann(n), fs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-300) > 2 {
		t.Fatalf("freq = %v, want the stronger tone at ~300", got)
	}
}

func TestPeaksInNoise(t *testing.T) {
	fs := 1000.0
	n := 1024
	src := noise.NewSource(11)
	x := src.AddAWGN(tone(n, 222, fs), 10)
	got, err := dominant(x, window.Hann(n), fs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-222) > 2 {
		t.Fatalf("freq in noise = %v, want ~222", got)
	}
}

// TestDominantFrequencyTieLowestBinWins pins the tie rule: among equal
// maxima the lowest bin wins. An impulse has an exactly flat spectrum, so
// every bin ties and bin 0 (0 Hz) must win over, say, the last bin
// (-fs/n). A two-tone signal with exactly equal peaks at bins n/4 and 3n/4
// must resolve to +fs/4, not -fs/4.
func TestDominantFrequencyTieLowestBinWins(t *testing.T) {
	const n, fs = 64, 64.0
	impulse := make([]complex128, n)
	impulse[0] = 1
	got, err := dominant(impulse, rect(n), fs)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("flat spectrum: freq = %v, want 0 (bin 0)", got)
	}
	// 2*cos(pi*i/2) = e^{i*pi*i/2} + e^{-i*pi*i/2}: integer samples
	// 2, 0, -2, 0, ... whose DFT is exactly n at bins n/4 and 3n/4.
	x := make([]complex128, n)
	for i := range x {
		x[i] = []complex128{2, 0, -2, 0}[i%4]
	}
	got, err = dominant(x, rect(n), fs)
	if err != nil {
		t.Fatal(err)
	}
	if !exact(got, fs/4) {
		t.Fatalf("two equal tones: freq = %v, want %v (lower bin)", got, fs/4)
	}
}

func TestDominantFrequencyNoPeak(t *testing.T) {
	// All-zero signal: no positive local maxima.
	if _, err := dominant(make([]complex128, 8), rect(8), 1); !errors.Is(err, ErrNoPeak) {
		t.Fatalf("zero signal: err = %v, want ErrNoPeak", err)
	}
}

func TestDominantFrequencyLengthMismatch(t *testing.T) {
	x := tone(8, 1, 8)
	if _, err := DominantFrequency(x, rect(4), 1, 8, make([]complex128, 8)); !errors.Is(err, ErrLength) {
		t.Fatalf("short window: err = %v, want ErrLength", err)
	}
	if _, err := DominantFrequency(x, rect(8), 1, 8, make([]complex128, 4)); !errors.Is(err, ErrLength) {
		t.Fatalf("short scratch: err = %v, want ErrLength", err)
	}
}

func TestDominantFrequencyEmpty(t *testing.T) {
	if _, err := dominant(nil, nil, 1); !errors.Is(err, ErrNoPeak) {
		t.Fatalf("empty signal: err = %v, want ErrNoPeak", err)
	}
}

func TestBinFreq(t *testing.T) {
	want := []float64{0, 100, 200, 300, 400, -300, -200, -100}
	for k, w := range want {
		if f := binFreq(k, len(want), 800); !exact(f, w) {
			t.Fatalf("binFreq(%d, 8, 800) = %v, want %v", k, f, w)
		}
	}
}

func TestDominantFrequencyKeepsInputAndAllocatesNothing(t *testing.T) {
	const n, fs = 128, 1000.0
	x := tone(n, 127.3, fs)
	orig := append([]complex128(nil), x...)
	w := window.Hann(n)
	u := WindowPower(w)
	scratch := make([]complex128, n)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := DominantFrequency(x, w, u, fs, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DominantFrequency(%d): %v allocs/op, want 0", n, allocs)
	}
	for i := range x {
		if !exact(real(x[i]), real(orig[i])) || !exact(imag(x[i]), imag(orig[i])) {
			t.Fatal("DominantFrequency mutated its input")
		}
	}
}

func TestWindowPower(t *testing.T) {
	if u := WindowPower(rect(10)); !exact(u, 1) {
		t.Fatalf("rect power = %v, want 1", u)
	}
	// Hann taps are sin^2 shaped, so the power tends to mean(sin^4) = 3/8.
	if u := WindowPower(window.Hann(4096)); math.Abs(u-0.375) > 1e-3 {
		t.Fatalf("Hann power = %v, want ~0.375", u)
	}
}

// TestPeakBinMatchesNormalizedSearch pins the raw-power peak search
// against the search it replaced, which divided every bin by N*U before
// comparing: over seeded random spectra (noise plus a few tones, at the
// segment lengths the radar uses) both must pick the same bin.
func TestPeakBinMatchesNormalizedSearch(t *testing.T) {
	normalizedPeak := func(spec []complex128, norm float64) int {
		n := len(spec)
		bin, peak := -1, 0.0
		for i := range spec {
			prev := binPower(spec[(i-1+n)%n], norm)
			cur := binPower(spec[i], norm)
			next := binPower(spec[(i+1)%n], norm)
			if cur >= prev && cur >= next && cur > peak {
				bin, peak = i, cur
			}
		}
		return bin
	}
	src := noise.NewSource(31)
	for trial := 0; trial < 200; trial++ {
		n := []int{16, 64, 128, 256}[trial%4]
		x := src.ComplexNoiseVec(n, src.Uniform(1e-6, 10))
		for tones := trial % 3; tones > 0; tones-- {
			f, amp := src.Uniform(-0.5, 0.5), src.Uniform(0, 5)
			for i := range x {
				x[i] += cmplx.Rect(amp, 2*math.Pi*f*float64(i))
			}
		}
		w := window.Hann(n)
		norm := float64(n) * WindowPower(w)
		spec := make([]complex128, n)
		for i, v := range x {
			spec[i] = complex(real(v)*w[i], imag(v)*w[i])
		}
		fft.ForwardInPlace(spec)
		if got, want := peakBin(spec), normalizedPeak(spec, norm); got != want {
			t.Fatalf("trial %d (n=%d): raw search picked bin %d, normalized search bin %d", trial, n, got, want)
		}
	}
}
