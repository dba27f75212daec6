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

	"safesense/internal/mat"
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
func (p BicycleParams) ContinuousMatrices(vx float64) (a, b *mat.Dense, err error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if vx <= 0 {
		return nil, nil, fmt.Errorf("lateral: speed must be positive, got %v", vx)
	}
	caf, car := p.CorneringFront, p.CorneringRear
	m, iz := p.MassKg, p.YawInertia
	lf, lr := p.LfM, p.LrM

	a = mat.NewDenseData(stateDim, stateDim, []float64{
		0, 1, 0, 0,
		0, -(caf + car) / (m * vx), (caf + car) / m, (-caf*lf + car*lr) / (m * vx),
		0, 0, 0, 1,
		0, -(caf*lf - car*lr) / (iz * vx), (caf*lf - car*lr) / iz, -(caf*lf*lf + car*lr*lr) / (iz * vx),
	})
	b = mat.NewDenseData(stateDim, 1, []float64{
		0,
		caf / m,
		0,
		caf * lf / iz,
	})
	return a, b, nil
}

// Discretize returns the zero-order-hold-approximated discrete dynamics at
// sample period dt, computed by subdividing dt into Euler substeps small
// enough for the stiff tire dynamics (the fastest mode of the bicycle
// model is ~(Caf+Car)/(m*vx) rad/s).
func (p BicycleParams) Discretize(vx, dt float64) (ad, bd *mat.Dense, err error) {
	ac, bc, err := p.ContinuousMatrices(vx)
	if err != nil {
		return nil, nil, err
	}
	if dt <= 0 {
		return nil, nil, errors.New("lateral: dt must be positive")
	}
	// Substep count: keep each Euler step below 1 ms.
	sub := int(dt/1e-3) + 1
	h := dt / float64(sub)
	// One substep: I + h*Ac, h*Bc; compose.
	stepA := mat.Identity(stateDim).Add(ac.Scale(h))
	stepB := bc.Scale(h)
	ad = mat.Identity(stateDim)
	bd = mat.NewDense(stateDim, 1)
	for i := 0; i < sub; i++ {
		bd = stepA.Mul(bd).Add(stepB)
		ad = stepA.Mul(ad)
	}
	return ad, bd, nil
}

// Model is the discretized lane-keeping plant.
type Model struct {
	A, B *mat.Dense
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
func (m *Model) Step(x []float64, delta float64) []float64 {
	next := m.A.MulVec(x)
	mat.Axpy(delta, m.B.Col(0), next)
	return next
}
