// Package spectrum implements the FFT-based beat-frequency extractor that
// the radar ablation compares against root-MUSIC: the dominant peak of a
// windowed periodogram, refined by parabolic interpolation.
package spectrum

import (
	"errors"
	"math"

	"safesense/internal/dsp/fft"
)

var (
	// ErrNoPeak reports a periodogram with no positive local maximum
	// (an empty or all-zero signal).
	ErrNoPeak = errors.New("spectrum: no peaks found")
	// ErrLength reports a window or scratch buffer whose length differs
	// from the signal's.
	ErrLength = errors.New("spectrum: window/scratch length differs from signal length")
)

// WindowPower returns the power normalization U = sum(w^2)/N of a window,
// which makes the periodogram of white noise flat at the noise power.
func WindowPower(w []float64) float64 {
	u := 0.0
	for _, v := range w {
		u += v * v
	}
	return u / float64(len(w))
}

// DominantFrequency returns the frequency in Hz of the strongest peak of
// the windowed periodogram |FFT(w.x)|^2 / (N*U) of x sampled at fs, where
// u = WindowPower(w). It windows x into scratch, transforms scratch in
// place, and picks the peak in one pass over the local maxima of the raw
// power |X|^2; among equal maxima the lowest bin wins. Dividing by the
// positive N*U cannot reorder bins, so only the three bins the parabolic
// interpolation over log power reads are normalized. w and scratch must
// have len(x); x is not modified. For power-of-two lengths it does not
// allocate once the length's FFT plan exists.
//
//safesense:hotpath
func DominantFrequency(x []complex128, w []float64, u, fs float64, scratch []complex128) (float64, error) {
	n := len(x)
	if len(w) != n || len(scratch) != n {
		return 0, ErrLength
	}
	if n == 0 {
		return 0, ErrNoPeak
	}
	// A real window scales each part; the complex product with w[i]+0i
	// would differ only in the sign of a zero.
	w, scratch = w[:n], scratch[:n]
	for i, v := range x {
		scratch[i] = complex(real(v)*w[i], imag(v)*w[i])
	}
	fft.ForwardInPlace(scratch)
	bin := peakBin(scratch)
	if bin < 0 {
		return 0, ErrNoPeak
	}
	return interpolate(scratch, float64(n)*u, bin, fs), nil
}

// peakBin returns the bin of spec's strongest local maximum of |X|^2,
// neighbors taken circularly, the lowest among equal maxima, or -1 when
// no bin has positive power.
func peakBin(spec []complex128) int {
	n := len(spec)
	bin, peak := -1, 0.0
	prev, cur := rawPower(spec[n-1]), rawPower(spec[0])
	for i := 0; i < n; i++ {
		j := i + 1
		if j == n {
			j = 0
		}
		next := rawPower(spec[j])
		// A local maximum beating every earlier one; starting from
		// peak = 0 also rejects non-positive (and NaN) bins.
		if cur >= prev && cur >= next && cur > peak {
			bin, peak = i, cur
		}
		prev, cur = cur, next
	}
	return bin
}

// rawPower is one bin's |X[k]|^2.
func rawPower(v complex128) float64 {
	return real(v)*real(v) + imag(v)*imag(v)
}

// binPower is one periodogram bin: |X[k]|^2 normalized by N*U.
func binPower(v complex128, norm float64) float64 {
	return rawPower(v) / norm
}

// binFreq is the frequency in Hz of DFT bin k of n at sample rate fs,
// unshifted: bins [0, n/2] are non-negative, bins above n/2 negative.
func binFreq(k, n int, fs float64) float64 {
	if k <= n/2 {
		return float64(k) * fs / float64(n)
	}
	return float64(k-n) * fs / float64(n)
}

// interpolate refines the peak location with a parabolic fit over log power
// on the three bins around the maximum, then converts the fractional bin to
// frequency assuming uniform bin spacing.
func interpolate(spec []complex128, norm float64, bin int, fs float64) float64 {
	n := len(spec)
	p0 := binPower(spec[bin], norm)
	pm := binPower(spec[(bin-1+n)%n], norm)
	pp := binPower(spec[(bin+1)%n], norm)
	f0 := binFreq(bin, n, fs)
	// Exact-bin tones leave only FFT round-off in the neighbors; parabolic
	// interpolation over those junk values adds noise, so skip it.
	if n == 1 || pm < p0*1e-9 && pp < p0*1e-9 {
		return f0
	}
	ym := safeLog(pm)
	y0 := safeLog(p0)
	yp := safeLog(pp)
	den := ym - 2*y0 + yp
	delta := 0.0
	if den != 0 {
		delta = 0.5 * (ym - yp) / den
		if delta > 0.5 {
			delta = 0.5
		} else if delta < -0.5 {
			delta = -0.5
		}
	}
	// Uniform spacing: df from adjacent bins.
	df := binFreq(1, n, fs) - binFreq(0, n, fs)
	return f0 + delta*df
}

func safeLog(x float64) float64 {
	if x <= 0 {
		return -745 // log of smallest positive double
	}
	return math.Log(x)
}
