package lateral

import (
	"errors"
	"math"

	"safesense/internal/control"
	"safesense/internal/mat"
)

// LKC is a lane-keeping controller: LQR state feedback on the lane error
// state with steering saturation.
type LKC struct {
	k        *mat.Dense
	maxSteer float64
}

// LKCConfig tunes the controller synthesis.
type LKCConfig struct {
	// QDiag weighs [e_y, e_y', e_psi, e_psi'] (zero means a lane-centering
	// default).
	QDiag []float64
	// R weighs the steering effort (zero means 50).
	R float64
	// MaxSteerRad saturates the command (zero means 0.30 rad ≈ 17°).
	MaxSteerRad float64
}

// NewLKC synthesizes the controller for the given plant.
func NewLKC(m *Model, cfg LKCConfig) (*LKC, error) {
	if m == nil {
		return nil, errors.New("lateral: nil model")
	}
	qd := cfg.QDiag
	if qd == nil {
		qd = []float64{8, 0.5, 4, 0.25}
	}
	if len(qd) != stateDim {
		return nil, errors.New("lateral: QDiag must have 4 entries")
	}
	r := cfg.R
	if r == 0 {
		r = 50
	}
	if r < 0 {
		return nil, errors.New("lateral: R must be positive")
	}
	maxSteer := cfg.MaxSteerRad
	if maxSteer == 0 {
		maxSteer = 0.30
	}
	if maxSteer < 0 {
		return nil, errors.New("lateral: MaxSteerRad must be positive")
	}
	k, _, err := control.DLQR(m.A, m.B, mat.Diag(qd), mat.Diag([]float64{r}), 0, 0)
	if err != nil {
		return nil, err
	}
	return &LKC{k: k, maxSteer: maxSteer}, nil
}

// Steer returns the saturated steering command for the error state x.
func (c *LKC) Steer(x []float64) float64 {
	u := -mat.Dot(c.k.Row(0), x)
	return math.Min(math.Max(u, -c.maxSteer), c.maxSteer)
}
