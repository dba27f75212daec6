// Package noise provides the deterministic, seedable noise sources used by
// the radar channel and measurement models: Gaussian measurement noise
// v_k ~ N(0, R), additive white Gaussian noise for complex baseband signals
// at a prescribed SNR, and the thermal receiver noise floor.
package noise

import (
	"math"
	"math/rand"

	"safesense/internal/units"
)

// Source is a seedable Gaussian noise source. All safesense randomness flows
// through Source so every experiment is reproducible from its seed.
//
// Its stream is math/rand's, bit for bit: a *rand.Rand over an additive
// lagged-Fibonacci generator held by value in the Source, seeded without
// stdlib's serial seeding chain (see lfib.Seed). NormFloat64's ziggurat and
// Float64 are stdlib's own.
type Source struct {
	gen lfib
	rng *rand.Rand
}

// NewSource returns a Source seeded deterministically: it draws exactly
// what rand.New(rand.NewSource(seed)) draws. Like math/rand it reduces the
// seed mod 2^31−1, so seeds s and s + (2^31−1) give the same stream.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.gen.Seed(seed)
	s.rng = rand.New(&s.gen)
	return s
}

// Seed re-seeds the source in place, without allocating: afterwards it
// draws exactly what NewSource(seed) would.
func (s *Source) Seed(seed int64) { s.rng.Seed(seed) }

// Gaussian returns a sample from N(mean, stddev^2).
func (s *Source) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*s.rng.NormFloat64()
}

// Uniform returns a sample from U[lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rng.Float64()
}

// AddAWGN adds complex white Gaussian noise to the signal so that the
// resulting per-sample signal-to-noise ratio is snrDB, measured against the
// signal's average power. The input slice is not modified; a noisy copy is
// returned. A zero-power signal is returned unchanged (SNR is undefined).
func (s *Source) AddAWGN(signal []complex128, snrDB float64) []complex128 {
	out := make([]complex128, len(signal))
	copy(out, signal)
	if p := AveragePower(signal); p != 0 {
		s.AddComplexNoise(out, p/units.DBToLinear(snrDB))
	}
	return out
}

// ComplexNoiseVec returns n circularly-symmetric complex Gaussian samples of
// total per-sample power sigma2. It models the receiver output when no
// signal is present (e.g. during a CRA challenge instant).
func (s *Source) ComplexNoiseVec(n int, sigma2 float64) []complex128 {
	out := make([]complex128, n)
	s.FillComplexNoise(out, sigma2)
	return out
}

// FillComplexNoise overwrites x with circularly-symmetric complex Gaussian
// samples of total per-sample power sigma2. Each sample draws its real part
// first, then its imaginary part, in index order.
//
//safesense:hotpath
func (s *Source) FillComplexNoise(x []complex128, sigma2 float64) {
	sd := math.Sqrt(sigma2 / 2)
	for i := range x {
		x[i] = complex(sd*s.rng.NormFloat64(), sd*s.rng.NormFloat64())
	}
}

// AddComplexNoise adds circularly-symmetric complex Gaussian noise of total
// per-sample power sigma2 to x in place. Each sample draws its real part
// first, then its imaginary part, in index order.
//
//safesense:hotpath
func (s *Source) AddComplexNoise(x []complex128, sigma2 float64) {
	sd := math.Sqrt(sigma2 / 2)
	for i, v := range x {
		x[i] = v + complex(sd*s.rng.NormFloat64(), sd*s.rng.NormFloat64())
	}
}

// AveragePower returns the mean squared magnitude of the signal.
func AveragePower(signal []complex128) float64 {
	if len(signal) == 0 {
		return 0
	}
	p := 0.0
	for _, v := range signal {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	return p / float64(len(signal))
}
