package baseline

import (
	"errors"
	"fmt"

	"safesense/internal/mat"
)

// Kalman is a linear Kalman filter for x_{k+1} = A x + w, y = C x + v with
// w ~ N(0, Q), v ~ N(0, R).
type Kalman struct {
	a, c, q, r *mat.Dense
	x          []float64
	p          *mat.Dense
}

// NewKalman builds a filter with initial state x0 and covariance p0.
func NewKalman(a, c, q, r *mat.Dense, x0 []float64, p0 *mat.Dense) (*Kalman, error) {
	n, n2 := a.Dims()
	if n != n2 {
		return nil, errors.New("baseline: A must be square")
	}
	pDim, cn := c.Dims()
	if cn != n {
		return nil, fmt.Errorf("baseline: C has %d cols, want %d", cn, n)
	}
	if qr, qc := q.Dims(); qr != n || qc != n {
		return nil, errors.New("baseline: Q dimension mismatch")
	}
	if rr, rc := r.Dims(); rr != pDim || rc != pDim {
		return nil, errors.New("baseline: R dimension mismatch")
	}
	if len(x0) != n {
		return nil, errors.New("baseline: x0 dimension mismatch")
	}
	if pr, pc := p0.Dims(); pr != n || pc != n {
		return nil, errors.New("baseline: P0 dimension mismatch")
	}
	return &Kalman{
		a: a.Clone(), c: c.Clone(), q: q.Clone(), r: r.Clone(),
		x: append([]float64{}, x0...), p: p0.Clone(),
	}, nil
}

// State returns a copy of the current state estimate.
func (k *Kalman) State() []float64 {
	return append([]float64{}, k.x...)
}

// Predict runs the time update only (used while measurements are withheld
// during an attack).
func (k *Kalman) Predict() {
	k.x = k.a.MulVec(k.x)
	k.p = k.a.Mul(k.p).Mul(k.a.T()).Add(k.q)
}

// Update runs a full predict + measurement update with observation y and
// returns the innovation (residual) vector.
func (k *Kalman) Update(y []float64) ([]float64, error) {
	if rows, _ := k.c.Dims(); len(y) != rows {
		return nil, fmt.Errorf("baseline: observation length %d, want %d", len(y), rows)
	}
	k.Predict()
	// Innovation and its covariance.
	innov := mat.SubVec(y, k.c.MulVec(k.x))
	s := k.c.Mul(k.p).Mul(k.c.T()).Add(k.r)
	sInv, err := mat.Inverse(s)
	if err != nil {
		return nil, fmt.Errorf("baseline: innovation covariance singular: %w", err)
	}
	gain := k.p.Mul(k.c.T()).Mul(sInv)
	k.x = mat.AddVec(k.x, gain.MulVec(innov))
	n, _ := k.a.Dims()
	ikc := mat.Identity(n).Sub(gain.Mul(k.c))
	k.p = ikc.Mul(k.p)
	// Symmetrize against round-off.
	k.p = k.p.Add(k.p.T()).Scale(0.5)
	return innov, nil
}

// InnovationCovariance returns S = C P C^T + R for the current prediction
// (call after Predict/Update as needed for chi-square gating).
func (k *Kalman) InnovationCovariance() *mat.Dense {
	return k.c.Mul(k.p).Mul(k.c.T()).Add(k.r)
}

// NewConstantVelocityKalman is a convenience constructor for tracking a
// scalar measurement with a [value, rate] state — the model used to track
// the radar distance channel in the detector ablation.
func NewConstantVelocityKalman(dt, q, r, v0 float64) (*Kalman, error) {
	if dt <= 0 {
		return nil, errors.New("baseline: dt must be positive")
	}
	a := mat.NewDenseData(2, 2, []float64{1, dt, 0, 1})
	c := mat.NewDenseData(1, 2, []float64{1, 0})
	qm := mat.NewDenseData(2, 2, []float64{
		q * dt * dt * dt / 3, q * dt * dt / 2,
		q * dt * dt / 2, q * dt,
	})
	rm := mat.NewDenseData(1, 1, []float64{r})
	x0 := []float64{v0, 0}
	p0 := mat.Diag([]float64{r * 10, 10})
	return NewKalman(a, c, qm, rm, x0, p0)
}
