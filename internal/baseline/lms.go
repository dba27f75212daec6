// Package baseline implements the comparison algorithms the ablation
// benchmarks measure the paper's CRA + RLS pipeline against: a normalized
// LMS adaptive filter (the cheap alternative to RLS), a Kalman filter with
// a constant-velocity model (the classical state estimator of the related
// work), and a chi-square residual detector in the style of PyCRA
// (Shoukry et al., CCS'15), which detects but cannot recover.
package baseline

import "fmt"

// LMS is a normalized least-mean-squares adaptive filter: the O(n)
// stochastic-gradient counterpart of RLS.
type LMS struct {
	w  []float64
	mu float64
	// eps regularizes the normalization for tiny regressors.
	eps float64
}

// NewLMS builds an order-n NLMS filter with step size mu in (0, 2).
func NewLMS(n int, mu float64) (*LMS, error) {
	if n < 1 {
		return nil, fmt.Errorf("baseline: LMS order must be >= 1, got %d", n)
	}
	if mu <= 0 || mu >= 2 {
		return nil, fmt.Errorf("baseline: LMS step size must be in (0, 2), got %v", mu)
	}
	return &LMS{w: make([]float64, n), mu: mu, eps: 1e-9}, nil
}

// Predict returns w^T h without adapting.
func (l *LMS) Predict(h []float64) float64 {
	s := 0.0
	for i, v := range h {
		s += l.w[i] * v
	}
	return s
}

// Update adapts on one sample and returns the a-priori prediction and
// error.
func (l *LMS) Update(h []float64, y float64) (pred, e float64, err error) {
	if len(h) != len(l.w) {
		return 0, 0, fmt.Errorf("baseline: regressor length %d, want %d", len(h), len(l.w))
	}
	pred = l.Predict(h)
	e = y - pred
	norm := l.eps
	for _, v := range h {
		norm += v * v
	}
	g := l.mu * e / norm
	for i, v := range h {
		l.w[i] += g * v
	}
	return pred, e, nil
}
