// Package lti models the discrete-time linear time-invariant plant of the
// paper's Section 3:
//
//	x_{k+1} = A x_k + B u_k
//	y_k     = C x_k + v_k,   v_k ~ N(0, R)
//
// and the attacked variant of Section 4 in which the measurement gains an
// adversarial term y^a_k. It also provides the structural checks
// (observability, controllability, stability) referenced by the related
// work the paper builds on.
package lti

import (
	"errors"
	"fmt"

	"safesense/internal/mat"
	"safesense/internal/noise"
)

// System is a discrete-time LTI system with additive Gaussian measurement
// noise.
type System struct {
	A *mat.Dense // n x n state matrix
	B *mat.Dense // n x m control matrix
	C *mat.Dense // p x n output matrix

	// MeasurementStd holds the per-output standard deviation of v_k
	// (diagonal R). A nil slice means noiseless output.
	MeasurementStd []float64
}

// NewSystem validates dimensions and returns a System.
func NewSystem(a, b, c *mat.Dense, measurementStd []float64) (*System, error) {
	n, n2 := a.Dims()
	if n != n2 {
		return nil, errors.New("lti: A must be square")
	}
	bn, _ := b.Dims()
	if bn != n {
		return nil, fmt.Errorf("lti: B has %d rows, want %d", bn, n)
	}
	p, cn := c.Dims()
	if cn != n {
		return nil, fmt.Errorf("lti: C has %d cols, want %d", cn, n)
	}
	if measurementStd != nil && len(measurementStd) != p {
		return nil, fmt.Errorf("lti: MeasurementStd has %d entries, want %d", len(measurementStd), p)
	}
	return &System{A: a, B: b, C: c, MeasurementStd: measurementStd}, nil
}

// StateDim returns n.
func (s *System) StateDim() int { r, _ := s.A.Dims(); return r }

// InputDim returns m.
func (s *System) InputDim() int { _, c := s.B.Dims(); return c }

// OutputDim returns p.
func (s *System) OutputDim() int { r, _ := s.C.Dims(); return r }

// Step advances the state one sample: x' = A x + B u.
func (s *System) Step(x, u []float64) []float64 {
	ax := s.A.MulVec(x)
	bu := s.B.MulVec(u)
	return mat.AddVec(ax, bu)
}

// Output returns y = C x + v with v drawn from src (or zero if src is nil
// or MeasurementStd is nil).
func (s *System) Output(x []float64, src *noise.Source) []float64 {
	y := s.C.MulVec(x)
	if src == nil || s.MeasurementStd == nil {
		return y
	}
	for i := range y {
		y[i] += src.Gaussian(0, s.MeasurementStd[i])
	}
	return y
}

// Simulate runs the closed system for steps samples from x0 under the input
// sequence provided by u (called with the step index and current state) and
// returns the state and output trajectories.
func (s *System) Simulate(x0 []float64, steps int, u func(k int, x []float64) []float64, src *noise.Source) (states, outputs [][]float64) {
	x := append([]float64{}, x0...)
	states = make([][]float64, steps)
	outputs = make([][]float64, steps)
	for k := 0; k < steps; k++ {
		states[k] = append([]float64{}, x...)
		outputs[k] = s.Output(x, src)
		x = s.Step(x, u(k, x))
	}
	return states, outputs
}

// ObservabilityMatrix returns [C; CA; ...; CA^{n-1}].
func (s *System) ObservabilityMatrix() *mat.Dense {
	n := s.StateDim()
	p := s.OutputDim()
	obs := mat.NewDense(p*n, n)
	block := s.C.Clone()
	for i := 0; i < n; i++ {
		for r := 0; r < p; r++ {
			obs.SetRow(i*p+r, block.Row(r))
		}
		block = block.Mul(s.A)
	}
	return obs
}

// Observable reports whether (A, C) is observable.
func (s *System) Observable() bool {
	return mat.Rank(s.ObservabilityMatrix(), 1e-10) == s.StateDim()
}

// ControllabilityMatrix returns [B, AB, ..., A^{n-1}B].
func (s *System) ControllabilityMatrix() *mat.Dense {
	n := s.StateDim()
	m := s.InputDim()
	ctrb := mat.NewDense(n, n*m)
	block := s.B.Clone()
	for i := 0; i < n; i++ {
		for r := 0; r < n; r++ {
			for c := 0; c < m; c++ {
				ctrb.Set(r, i*m+c, block.At(r, c))
			}
		}
		block = s.A.Mul(block)
	}
	return ctrb
}

// Controllable reports whether (A, B) is controllable.
func (s *System) Controllable() bool {
	return mat.Rank(s.ControllabilityMatrix(), 1e-10) == s.StateDim()
}

// Stable reports whether the autonomous dynamics are Schur stable
// (spectral radius of A strictly below 1, within a small tolerance).
func (s *System) Stable() bool {
	return mat.SpectralRadius(s.A, 0) < 1-1e-9
}
