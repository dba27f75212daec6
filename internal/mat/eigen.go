package mat

import "math"

// SpectralRadius estimates the spectral radius (largest |eigenvalue|) of a
// general square matrix via Gelfand's formula rho(A) = lim ||A^k||^(1/k),
// evaluated by repeated squaring with normalization: after m squarings it
// reports ||A^(2^m)||_F^(1/2^m). Unlike plain power iteration this converges
// for complex eigenvalue pairs, which the closed-loop ACC dynamics have.
// It is the discrete-time stability check of the closed-loop tests.
func SpectralRadius(a *Dense, squarings int) float64 {
	n, c := a.Dims()
	if n != c {
		panic("mat: SpectralRadius of non-square matrix")
	}
	if squarings <= 0 {
		squarings = 40
	}
	b := a.Clone()
	logScale := 0.0 // accumulated log of normalization factors, weighted.
	k := 1.0        // current power of A represented by b*exp(logScale terms)
	for i := 0; i < squarings; i++ {
		nrm := b.FrobeniusNorm()
		if nrm == 0 {
			return 0
		}
		// Normalize to keep entries representable, tracking the factor:
		// A^k = nrm * b  =>  log||A^k|| contribution nrm at weight 1/k.
		logScale += math.Log(nrm) / k
		b = b.Scale(1 / nrm)
		b = b.Mul(b)
		k *= 2
	}
	nrm := b.FrobeniusNorm()
	if nrm == 0 {
		return 0
	}
	logScale += math.Log(nrm) / k
	return math.Exp(logScale)
}
