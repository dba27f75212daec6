// Package lateral implements the paper's stated future work: extending the
// case study "to include a non-linear system model with lateral dynamics".
// It provides the standard linear bicycle error model for lane keeping
// (Rajamani), an LQR lane-keeping controller (LKC — one of the automated
// features the paper's introduction motivates), and a closed-loop lane
// keeping simulation whose lateral active sensor (lidar-type lane ranging)
// is protected by the same CRA + RLS pipeline as the longitudinal radar.
package lateral

import (
	"errors"
	"fmt"
)

// BicycleParams are the single-track (bicycle) model parameters.
type BicycleParams struct {
	// MassKg is the vehicle mass m.
	MassKg float64
	// YawInertia is Iz (kg m^2).
	YawInertia float64
	// LfM / LrM are the front/rear axle distances from the CG (m).
	LfM, LrM float64
	// CorneringFront / CorneringRear are the axle cornering stiffnesses
	// Caf / Car (N/rad).
	CorneringFront, CorneringRear float64
}

// DefaultSedan returns parameters of a mid-size passenger car.
func DefaultSedan() BicycleParams {
	return BicycleParams{
		MassKg:         1500,
		YawInertia:     2500,
		LfM:            1.2,
		LrM:            1.6,
		CorneringFront: 80000,
		CorneringRear:  80000,
	}
}

// Validate checks physical plausibility.
func (p BicycleParams) Validate() error {
	switch {
	case p.MassKg <= 0:
		return errors.New("lateral: mass must be positive")
	case p.YawInertia <= 0:
		return errors.New("lateral: yaw inertia must be positive")
	case p.LfM <= 0 || p.LrM <= 0:
		return errors.New("lateral: axle distances must be positive")
	case p.CorneringFront <= 0 || p.CorneringRear <= 0:
		return errors.New("lateral: cornering stiffnesses must be positive")
	}
	return nil
}

// State indices of the lane-keeping error model:
// x = [e_y, e_y', e_psi, e_psi'] — lateral offset from the lane
// centerline, its rate, heading error, and its rate.
const (
	StateEy = iota
	StateEyDot
	StateEPsi
	StateEPsiDot
	stateDim
)

// ContinuousMatrices returns the continuous-time lane-keeping error
// dynamics at constant longitudinal speed vx (m/s): x' = A x + B delta,
// with delta the front steering angle (rad).
func (p BicycleParams) ContinuousMatrices(vx float64) (a [stateDim][stateDim]float64, b [stateDim]float64, err error) {
	if err := p.Validate(); err != nil {
		return a, b, err
	}
	if vx <= 0 {
		return a, b, fmt.Errorf("lateral: speed must be positive, got %v", vx)
	}
	caf, car := p.CorneringFront, p.CorneringRear
	m, iz := p.MassKg, p.YawInertia
	lf, lr := p.LfM, p.LrM

	a = [stateDim][stateDim]float64{
		{0, 1, 0, 0},
		{0, -(caf + car) / (m * vx), (caf + car) / m, (float64(-caf*lf) + float64(car*lr)) / (m * vx)},
		{0, 0, 0, 1},
		{0, -(float64(caf*lf) - float64(car*lr)) / (iz * vx), (float64(caf*lf) - float64(car*lr)) / iz,
			-(float64(caf*lf*lf) + float64(car*lr*lr)) / (iz * vx)},
	}
	b = [stateDim]float64{0, caf / m, 0, caf * lf / iz}
	return a, b, nil
}

// Discretize returns the zero-order-hold-approximated discrete dynamics at
// sample period dt, computed by subdividing dt into Euler substeps small
// enough for the stiff tire dynamics (the fastest mode of the bicycle
// model is ~(Caf+Car)/(m*vx) rad/s).
func (p BicycleParams) Discretize(vx, dt float64) (ad [stateDim][stateDim]float64, bd [stateDim]float64, err error) {
	ac, bc, err := p.ContinuousMatrices(vx)
	if err != nil {
		return ad, bd, err
	}
	if dt <= 0 {
		return ad, bd, errors.New("lateral: dt must be positive")
	}
	// Substep count: keep each Euler step below 1 ms.
	sub := int(dt/1e-3) + 1
	h := dt / float64(sub)
	// One substep is I + h*Ac, h*Bc; ad starts as I, bd as 0.
	var stepA [stateDim][stateDim]float64
	var stepB [stateDim]float64
	for i := range stepA {
		ad[i][i] = 1
		for j := range stepA[i] {
			stepA[i][j] = ad[i][j] + float64(ac[i][j]*h)
		}
		stepB[i] = bc[i] * h
	}
	for i := 0; i < sub; i++ {
		bd = mulVec(stepA, bd)
		for j := range bd {
			bd[j] += stepB[j]
		}
		ad = mul(stepA, ad)
	}
	return ad, bd, nil
}

// Model is the discretized lane-keeping plant.
type Model struct {
	A [stateDim][stateDim]float64
	B [stateDim]float64
}

// NewModel discretizes the bicycle parameters at speed vx and period dt.
func NewModel(p BicycleParams, vx, dt float64) (*Model, error) {
	a, b, err := p.Discretize(vx, dt)
	if err != nil {
		return nil, err
	}
	return &Model{A: a, B: b}, nil
}

// Step advances the error state one sample under steering angle delta.
func (m *Model) Step(x [stateDim]float64, delta float64) [stateDim]float64 {
	next := mulVec(m.A, x)
	for i := range next {
		next[i] += float64(delta * m.B[i])
	}
	return next
}

// In the 4x4 products below each sum starts from 0 and adds its terms in
// index order, and the float64 conversions keep every product rounded, so
// no platform fuses one into an FMA. That fixes the bits, which the
// golden fingerprint's lane-keeping runs pin.

// dot returns xᵀ y.
func dot(x, y [stateDim]float64) float64 {
	s := 0.0
	for i := range x {
		s += float64(x[i] * y[i])
	}
	return s
}

// mulVec returns the column vector m x.
func mulVec(m [stateDim][stateDim]float64, x [stateDim]float64) (out [stateDim]float64) {
	for i := range out {
		out[i] = dot(m[i], x)
	}
	return out
}

// vecMul returns the row vector v m.
func vecMul(v [stateDim]float64, m [stateDim][stateDim]float64) (out [stateDim]float64) {
	for j := range out {
		for k := range v {
			out[j] += float64(v[k] * m[k][j])
		}
	}
	return out
}

// mul returns the matrix product x y.
func mul(x, y [stateDim][stateDim]float64) (out [stateDim][stateDim]float64) {
	for i := range out {
		out[i] = vecMul(x[i], y)
	}
	return out
}

// transpose returns mᵀ.
func transpose(m [stateDim][stateDim]float64) (t [stateDim][stateDim]float64) {
	for i := range m {
		for j := range m[i] {
			t[j][i] = m[i][j]
		}
	}
	return t
}
