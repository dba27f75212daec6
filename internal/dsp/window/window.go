// Package window provides the tapering windows applied before spectral
// estimation of radar beat signals. Windowing trades main-lobe width for
// side-lobe suppression; the FMCW receiver uses Hann by default.
package window

import "math"

// Func generates an n-point window.
type Func func(n int) []float64

// Hann returns the n-point Hann window.
func Hann(n int) []float64 {
	return raisedCosine(n, 0.5, 0.5)
}

// Hamming returns the n-point Hamming window.
func Hamming(n int) []float64 {
	return raisedCosine(n, 0.54, 0.46)
}

// Blackman returns the n-point Blackman window.
func Blackman(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		x := 2 * math.Pi * float64(i) / float64(n-1)
		w[i] = 0.42 - 0.5*math.Cos(x) + 0.08*math.Cos(2*x)
	}
	return w
}

func raisedCosine(n int, a0, a1 float64) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = a0 - a1*math.Cos(2*math.Pi*float64(i)/float64(n-1))
	}
	return w
}

// CoherentGain returns the window's coherent gain (mean of the window),
// used to correct amplitude estimates after windowed FFTs.
func CoherentGain(w []float64) float64 {
	if len(w) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range w {
		s += v
	}
	return s / float64(len(w))
}
