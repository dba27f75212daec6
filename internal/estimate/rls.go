// Package estimate implements the paper's Algorithm 1 — recursive least
// squares (RLS) estimation of sensor measurements — and the free-running
// measurement predictor built on it that supplies the controller with safe
// distance and relative-velocity values for the duration of an attack.
package estimate

import (
	"errors"
	"fmt"
	"math"

	"safesense/internal/mat"
)

var (
	// ErrRegressorLength reports a regressor or basis-change matrix whose
	// size does not match the filter order.
	ErrRegressorLength = errors.New("estimate: regressor size does not match the filter order")
	// ErrConversionFactor reports a conversion factor gamma that is not
	// finite and positive: P lost definiteness or holds non-finite
	// entries, and updating w with it would poison the estimate.
	ErrConversionFactor = errors.New("estimate: conversion factor not finite and positive (P lost definiteness)")
	// ErrNonFiniteMeasurement reports a desired output y that is NaN or
	// infinite: the error e would carry it into w.
	ErrNonFiniteMeasurement = errors.New("estimate: measurement not finite")
)

// RLS is the exponentially-weighted recursive least squares filter of
// Algorithm 1 (Haykin). State: weight vector w and inverse-correlation
// matrix P, updated per sample in O(n^2) without allocating.
//
// The update is bit-exact with the textbook matrix form
// ((P - k g^T) / lambda + transpose) / 2: it performs the same float
// operations in the same order, only in place.
type RLS struct {
	n      int
	lambda float64

	// buf is the filter's only allocation. w, p, g, k, h and tmp are
	// views into it: the weights, the row-major n×n inverse-correlation
	// matrix, the scratch vectors g = P h and k = g / gamma, a regressor
	// buffer for the owner (see Predictor), and an n×n product scratch.
	buf                []float64
	w, p, g, k, h, tmp []float64

	// LastGamma exposes the conversion factor gamma of the most recent
	// update, useful for monitoring conditioning.
	LastGamma float64
}

// NewRLS builds an order-n RLS filter with forgetting factor lambda in
// (0, 1] and initialization P_0 = delta*I with delta positive and finite
// (the paper uses delta = 1).
func NewRLS(n int, lambda, delta float64) (*RLS, error) {
	if n < 1 {
		return nil, fmt.Errorf("estimate: order must be >= 1, got %d", n)
	}
	if !(lambda > 0 && lambda <= 1) {
		return nil, fmt.Errorf("estimate: forgetting factor must be in (0, 1], got %v", lambda)
	}
	if err := checkDelta(delta); err != nil {
		return nil, err
	}
	r := &RLS{n: n, lambda: lambda}
	r.bind(make([]float64, 4*n+2*n*n))
	r.reset(delta)
	return r, nil
}

func checkDelta(delta float64) error {
	if !(delta > 0) || math.IsInf(delta, 1) {
		return fmt.Errorf("estimate: delta must be positive and finite, got %v", delta)
	}
	return nil
}

// bind points the state and scratch views into buf.
func (r *RLS) bind(buf []float64) {
	n := r.n
	r.buf = buf
	r.w, buf = buf[:n:n], buf[n:]
	r.p, buf = buf[:n*n:n*n], buf[n*n:]
	r.g, buf = buf[:n:n], buf[n:]
	r.k, buf = buf[:n:n], buf[n:]
	r.h, buf = buf[:n:n], buf[n:]
	r.tmp = buf[: n*n : n*n]
}

// Order returns the filter order n.
func (r *RLS) Order() int { return r.n }

// Weights returns a copy of the current weight vector.
func (r *RLS) Weights() []float64 { return append([]float64(nil), r.w...) }

// P returns a copy of the current inverse-correlation matrix.
func (r *RLS) P() *mat.Dense { return mat.NewDenseData(r.n, r.n, r.p) }

// Predict returns the filter output w^T h for regressor h without updating
// the state. It panics with ErrRegressorLength if len(h) is not the
// filter order.
func (r *RLS) Predict(h []float64) float64 {
	if len(h) != r.n {
		panic(ErrRegressorLength)
	}
	return dot(r.w, h)
}

// Update performs one Algorithm 1 iteration with regressor h and desired
// output y. It returns the a-priori prediction w_{k-1}^T h_k and the error
// e_k = y_k - w_{k-1}^T h_k. Steps (paper lines 5–11):
//
//	g     = P_{k-1} h_k
//	gamma = lambda + h_k^T g
//	kGain = g / gamma
//	e     = y_k - w_{k-1}^T h_k
//	w_k   = w_{k-1} + kGain e
//	P_k   = (P_{k-1} - kGain g^T) / lambda
//
// A non-finite y (ErrNonFiniteMeasurement) or gamma (ErrConversionFactor)
// fails the update and leaves the state untouched.
//
//safesense:hotpath
func (r *RLS) Update(h []float64, y float64) (pred, e float64, err error) {
	if len(h) != r.n {
		return 0, 0, ErrRegressorLength
	}
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return 0, 0, ErrNonFiniteMeasurement
	}
	n, w, p, g, kGain := r.n, r.w, r.p, r.g, r.k
	mulVec(g, p, h, n)
	gamma := r.lambda + dot(h, g)
	if !(gamma > 0) || math.IsInf(gamma, 1) {
		return 0, 0, ErrConversionFactor
	}
	r.LastGamma = gamma
	invGamma := 1 / gamma
	for i, gi := range g {
		kGain[i] = invGamma * gi
	}
	pred = dot(w, h)
	e = y - pred
	for i, ki := range kGain {
		w[i] += e * ki
	}
	// P <- (P - kGain g^T) / lambda, symmetrized to fight round-off drift:
	// each (i, j), (j, i) pair is read once and written back as the mean
	// of the two. The float64 conversions forbid fused multiply-adds, so
	// every product rounds exactly as the stored intermediates of the
	// matrix form do.
	invLambda := 1 / r.lambda
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			a := float64((p[i*n+j] - float64(kGain[i]*g[j])) * invLambda)
			b := float64((p[j*n+i] - float64(kGain[j]*g[i])) * invLambda)
			v := (a + b) * 0.5
			p[i*n+j], p[j*n+i] = v, v
		}
	}
	return pred, e, nil
}

// dot returns x^T y summed left to right, as mat.Dot does; y must be at
// least as long as x.
func dot(x, y []float64) float64 {
	s := 0.0
	for i, xi := range x {
		s += xi * y[i]
	}
	return s
}

// mulVec sets dst = m x for the row-major n×n matrix m, summing each row
// left to right as mat.Dense.MulVec does.
func mulVec(dst, m, x []float64, n int) {
	for i := range dst[:n] {
		s := 0.0
		for j, xj := range x[:n] {
			s += m[i*n+j] * xj
		}
		dst[i] = s
	}
}

// Clone returns a deep copy of the filter state.
func (r *RLS) Clone() *RLS {
	c := r.clone()
	return &c
}

// clone copies the filter by value; its buffer is the one allocation.
func (r *RLS) clone() RLS {
	c := *r
	c.bind(append([]float64(nil), r.buf...))
	return c
}

// Translate re-expresses the filter state in a new regressor basis:
// w <- M w and P <- M P M^T, where M (row-major n×n) is the invertible
// basis-change matrix satisfying h_old = M^T h_new. Predictions are
// invariant: w_new^T h_new = w_old^T h_old. The trend predictor uses this
// to shift a polynomial time basis one step each sample, which keeps the
// regressors perfectly conditioned regardless of how long the filter runs.
//
// Both products follow mat.Dense.Mul's summation order, including its skip
// of zero left-hand entries, so the result is bit-exact with
// m.Mul(P).Mul(m.T()).
//
//safesense:hotpath
func (r *RLS) Translate(m []float64) error {
	n := r.n
	if len(m) != n*n {
		return ErrRegressorLength
	}
	mulVec(r.g, m, r.w, n)
	copy(r.w, r.g)
	mulSkipZero(r.tmp, m, r.p, n, n, 1) // tmp = M P
	mulSkipZero(r.p, r.tmp, m, n, 1, n) // P = tmp M^T
	return nil
}

// mulSkipZero sets dst = a b for the row-major n×n a, where b's (k, j)
// entry is b[k*rs+j*cs]: (rs, cs) = (n, 1) reads b, (1, n) its transpose.
// Like mat.Dense.Mul it sums over k in order and skips zero entries of a.
func mulSkipZero(dst, a, b []float64, n, rs, cs int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				if aik := a[i*n+k]; aik != 0 {
					s += aik * b[k*rs+j*cs]
				}
			}
			dst[i*n+j] = s
		}
	}
}

// Reset restores the filter to its initial state with P = delta*I.
func (r *RLS) Reset(delta float64) error {
	if err := checkDelta(delta); err != nil {
		return err
	}
	clear(r.w)
	r.reset(delta)
	return nil
}

// SetState overwrites the weights and re-initializes P = delta*I. The
// change-detection reset uses it to refit a trend while preserving the
// continuous part of the signal (the level).
func (r *RLS) SetState(w []float64, delta float64) error {
	if err := checkDelta(delta); err != nil {
		return err
	}
	if len(w) != r.n {
		return fmt.Errorf("estimate: weight length %d, want %d", len(w), r.n)
	}
	copy(r.w, w)
	r.reset(delta)
	return nil
}

// reset sets P = delta*I and clears LastGamma, leaving w alone.
func (r *RLS) reset(delta float64) {
	clear(r.p)
	for i := 0; i < r.n; i++ {
		r.p[i*r.n+i] = delta
	}
	r.LastGamma = 0
}
