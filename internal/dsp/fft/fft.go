// Package fft implements the discrete Fourier transform used by the radar
// receiver's FFT-based beat-frequency extractor and the spectrum analysis
// tooling: an iterative radix-2 Cooley–Tukey transform for power-of-two
// lengths and Bluestein's chirp-z algorithm for arbitrary lengths.
package fft

import (
	"math"
	"math/bits"
	"math/cmplx"
)

// Forward returns the DFT of x:
//
//	X[k] = sum_n x[n] * exp(-2*pi*i*k*n/N).
//
// Any length is accepted; power-of-two lengths use radix-2, others use
// Bluestein. The input is not modified.
func Forward(x []complex128) []complex128 {
	if len(x) == 0 {
		return nil
	}
	out := make([]complex128, len(x))
	copy(out, x)
	ForwardInPlace(out)
	return out
}

// ForwardInPlace overwrites x with its DFT, with Forward's numerics.
// Power-of-two lengths transform in place without allocating; other
// lengths run Bluestein in temporary buffers and copy the result back.
func ForwardInPlace(x []complex128) {
	if len(x) == 0 {
		return
	}
	if isPow2(len(x)) {
		radix2(x, false)
		return
	}
	copy(x, bluestein(x))
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// radix2 computes an in-place iterative Cooley–Tukey FFT. inverse selects
// the conjugate twiddle factors (no normalization).
func radix2(a []complex128, inverse bool) {
	n := len(a)
	if n == 1 {
		return
	}
	// Bit-reversal permutation.
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

// bluestein computes the DFT of arbitrary length via the chirp-z transform,
// reducing to a power-of-two circular convolution.
func bluestein(x []complex128) []complex128 {
	n := len(x)
	// Chirp: w[k] = exp(-i*pi*k^2/n).
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		// Use k^2 mod 2n to avoid precision loss for large k.
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
	radix2(a, false)
	radix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	radix2(a, true)
	invM := complex(1/float64(m), 0)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		out[k] = a[k] * invM * chirp[k]
	}
	return out
}
