// Package estimate implements the paper's Algorithm 1 — recursive least
// squares (RLS) estimation of sensor measurements — and the free-running
// measurement predictor built on it that supplies the controller with safe
// distance and relative-velocity values for the duration of an attack.
package estimate

import (
	"errors"
	"fmt"
	"math"
)

var (
	// ErrConversionFactor reports a conversion factor gamma that is not
	// finite and positive: P lost definiteness or holds non-finite
	// entries, and updating w with it would poison the estimate.
	ErrConversionFactor = errors.New("estimate: conversion factor not finite and positive (P lost definiteness)")
	// ErrNonFiniteMeasurement reports a desired output y that is NaN or
	// infinite: the error e would carry it into w.
	ErrNonFiniteMeasurement = errors.New("estimate: measurement not finite")
)

// RLS is the exponentially-weighted recursive least squares filter of
// Algorithm 1 (Haykin) at the paper's fixed order: two weights w and the
// 2×2 inverse-correlation matrix P, updated per sample without allocating.
// A struct copy is a deep copy.
//
// The update is bit-exact with the textbook matrix form
// ((P - k g^T) / lambda + transpose) / 2: it performs the same float
// operations in the same order, only in place.
type RLS struct {
	w      [2]float64
	p      [2][2]float64
	lambda float64

	// LastGamma exposes the conversion factor gamma of the most recent
	// update, useful for monitoring conditioning.
	LastGamma float64
}

// NewRLS builds a 2-weight RLS filter with forgetting factor lambda in
// (0, 1] and initialization P_0 = delta*I with delta positive and finite
// (the paper uses delta = 1).
func NewRLS(lambda, delta float64) (*RLS, error) {
	if !(lambda > 0 && lambda <= 1) {
		return nil, fmt.Errorf("estimate: forgetting factor must be in (0, 1], got %v", lambda)
	}
	if err := checkDelta(delta); err != nil {
		return nil, err
	}
	r := &RLS{lambda: lambda}
	r.reset(delta)
	return r, nil
}

func checkDelta(delta float64) error {
	if !(delta > 0) || math.IsInf(delta, 1) {
		return fmt.Errorf("estimate: delta must be positive and finite, got %v", delta)
	}
	return nil
}

// Weights returns the current weight vector.
func (r *RLS) Weights() [2]float64 { return r.w }

// P returns the current inverse-correlation matrix.
func (r *RLS) P() [2][2]float64 { return r.p }

// Predict returns the filter output w^T h for regressor h without updating
// the state.
func (r *RLS) Predict(h [2]float64) float64 { return dot(r.w, h) }

// dot returns x^T y summed left to right from 0, as mat.Dot does: the
// leading zero turns a sum of two -0 products into +0.
func dot(x, y [2]float64) float64 { return 0 + x[0]*y[0] + x[1]*y[1] }

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
func (r *RLS) Update(h [2]float64, y float64) (pred, e float64, err error) {
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return 0, 0, ErrNonFiniteMeasurement
	}
	p := &r.p
	g := [2]float64{dot(p[0], h), dot(p[1], h)}
	gamma := r.lambda + dot(h, g)
	if !(gamma > 0) || math.IsInf(gamma, 1) {
		return 0, 0, ErrConversionFactor
	}
	r.LastGamma = gamma
	invGamma := 1 / gamma
	kGain := [2]float64{invGamma * g[0], invGamma * g[1]}
	pred = r.Predict(h)
	e = y - pred
	r.w[0] += e * kGain[0]
	r.w[1] += e * kGain[1]
	// P <- (P - kGain g^T) / lambda, symmetrized to fight round-off drift:
	// each (i, j), (j, i) pair is read once and written back as the mean
	// of the two. The float64 conversions forbid fused multiply-adds, so
	// every product rounds exactly as the stored intermediates of the
	// matrix form do.
	invLambda := 1 / r.lambda
	for i := 0; i < 2; i++ {
		for j := i; j < 2; j++ {
			a := float64((p[i][j] - float64(kGain[i]*g[j])) * invLambda)
			b := float64((p[j][i] - float64(kGain[j]*g[i])) * invLambda)
			v := (a + b) * 0.5
			p[i][j], p[j][i] = v, v
		}
	}
	return pred, e, nil
}

// Translate moves the origin of the local-trend basis [1, tau] forward by
// s: w <- M w and P <- M P M^T with M = [[1, s], [0, 1]], so a sample
// previously at tau = 0 sits at tau = -s afterwards. Predictions are
// invariant: w_new^T [1, tau] = w_old^T [1, tau + s]. The trend predictor
// shifts the basis one step each sample, which keeps the regressors
// perfectly conditioned regardless of how long the filter runs.
//
// This is the matrix form's products with M's zero terms dropped, in the
// same order, so the result is bit-exact with m.Mul(P).Mul(m.T()). The
// float64 conversions keep each stored product rounded on every platform.
//
//safesense:hotpath
func (r *RLS) Translate(s float64) {
	r.w[0] += float64(s * r.w[1])
	p := &r.p
	t00 := p[0][0] + float64(s*p[1][0]) // row 0 of M P
	t01 := p[0][1] + float64(s*p[1][1])
	p[0][0] = t00 + float64(t01*s)
	p[0][1] = t01
	p[1][0] += float64(p[1][1] * s)
}

// Reset restores the filter to its initial state with P = delta*I.
func (r *RLS) Reset(delta float64) error {
	if err := checkDelta(delta); err != nil {
		return err
	}
	r.w = [2]float64{}
	r.reset(delta)
	return nil
}

// reset sets P = delta*I and clears LastGamma, leaving w alone.
func (r *RLS) reset(delta float64) {
	r.p = [2][2]float64{{delta, 0}, {0, delta}}
	r.LastGamma = 0
}
