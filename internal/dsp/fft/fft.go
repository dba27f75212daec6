// Package fft implements the discrete Fourier transform used by the radar
// receiver's FFT-based beat-frequency extractor and the spectrum analysis
// tooling: an iterative radix-2 Cooley–Tukey transform for power-of-two
// lengths and Bluestein's chirp-z algorithm for arbitrary lengths.
//
// The radix-2 kernel reads its twiddle factors and bit-reversal swaps
// from a plan built once per power-of-two length and shared by every
// caller, so a transform does no trigonometry.
package fft

import (
	"math"
	"math/bits"
	"math/cmplx"
	"sync/atomic"
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
// Power-of-two lengths transform in place and, once their plan exists,
// without allocating; other lengths run Bluestein in temporary buffers
// and copy the result back.
func ForwardInPlace(x []complex128) {
	if len(x) == 0 {
		return
	}
	if isPow2(len(x)) {
		planFor(len(x)).transform(x, false)
		return
	}
	copy(x, bluestein(x))
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// plan holds the constants of a radix-2 transform of one power-of-two
// length n. Stage s (butterfly span half = 2^s) reads its twiddles from
// fwd[half-1 : 2*half-1]; inv holds their conjugates for the inverse
// transform; swaps lists the bit-reversal exchanges as (i, j) pairs.
type plan struct {
	fwd, inv []complex128
	swaps    []int32
}

// plans caches one plan per power-of-two length, indexed by log2(n).
var plans [bits.UintSize]atomic.Pointer[plan]

// planFor returns the shared plan for power-of-two length n, building it
// on first use. Concurrent first uses may each build one; the values
// are identical, and the first stored wins.
func planFor(n int) *plan {
	slot := &plans[bits.TrailingZeros(uint(n))]
	if p := slot.Load(); p != nil {
		return p
	}
	slot.CompareAndSwap(nil, newPlan(n))
	return slot.Load()
}

// newPlan tabulates the twiddles of every stage with the recurrence
// w *= exp(-2*pi*i/size) starting from w = 1, so each value equals what
// a recurrence kernel computes in its inner loop bit for bit. The
// inverse direction's recurrence is the exact conjugate of the forward
// one (cos is even and sin odd in floating point, and a product of
// conjugates is the conjugate of the product), so inv is conj(fwd).
func newPlan(n int) *plan {
	p := &plan{fwd: make([]complex128, n-1), inv: make([]complex128, n-1)}
	sign := -1.0
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		wBase := cmplx.Rect(1, step)
		w := complex(1, 0)
		for k := 0; k < half; k++ {
			p.fwd[half-1+k] = w
			p.inv[half-1+k] = cmplx.Conj(w)
			w *= wBase
		}
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
			p.swaps = append(p.swaps, int32(i), int32(j))
		}
	}
	return p
}

// transform computes an in-place iterative Cooley–Tukey FFT of a, whose
// length is the plan's. inverse selects the conjugate twiddles (no
// normalization). The k = 0 butterfly of each group skips the multiply
// by exactly 1+0i, which can change only the sign of a zero.
func (p *plan) transform(a []complex128, inverse bool) {
	n := len(a)
	for s := 0; s < len(p.swaps); s += 2 {
		i, j := p.swaps[s], p.swaps[s+1]
		a[i], a[j] = a[j], a[i]
	}
	tw := p.fwd
	if inverse {
		tw = p.inv
	}
	for half := 1; half < n; half <<= 1 {
		stage := tw[half-1 : 2*half-1]
		for start := 0; start < n; start += 2 * half {
			lo := a[start : start+half]
			hi := a[start+half : start+2*half][:len(lo)]
			w := stage[:len(lo)]
			u, v := lo[0], hi[0]
			lo[0], hi[0] = u+v, u-v
			for k := 1; k < len(lo); k++ {
				u := lo[k]
				v := hi[k] * w[k]
				lo[k] = u + v
				hi[k] = u - v
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
	p := planFor(m)
	p.transform(a, false)
	p.transform(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	p.transform(a, true)
	invM := complex(1/float64(m), 0)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		out[k] = a[k] * invM * chirp[k]
	}
	return out
}
