// Package window provides the tapering windows applied before spectral
// estimation of radar beat signals. Windowing trades main-lobe width for
// side-lobe suppression; the FMCW receiver uses Hann by default.
package window

import "math"

// Hann returns the n-point Hann window.
func Hann(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.5 - 0.5*math.Cos(2*math.Pi*float64(i)/float64(n-1))
	}
	return w
}
