package lateral

import (
	"errors"
	"math"
)

// The lane-keeping controller's design: LQR weights lkcQ on
// [e_y, e_y', e_psi, e_psi'] (lane centering) and lkcR on the steering
// effort, with the command saturated at maxSteerRad (≈ 17°).
var lkcQ = [stateDim]float64{8, 0.5, 4, 0.25}

const (
	lkcR        = 50
	maxSteerRad = 0.30
)

// The Riccati iteration stops once an update moves P by at most
// riccatiTol relative to its largest entry, or fails after
// riccatiMaxIter updates.
const (
	riccatiMaxIter = 10000
	riccatiTol     = 1e-12
)

// LKC is a lane-keeping controller: LQR state feedback on the lane error
// state with steering saturation.
type LKC struct {
	k [stateDim]float64
}

// NewLKC synthesizes the controller for the given plant.
func NewLKC(m *Model) (*LKC, error) {
	k, err := dlqr(m.A, m.B, lkcQ, lkcR)
	if err != nil {
		return nil, err
	}
	return &LKC{k: k}, nil
}

// Steer returns the saturated steering command for the error state x.
func (c *LKC) Steer(x [stateDim]float64) float64 {
	u := -dot(c.k, x)
	return math.Min(math.Max(u, -maxSteerRad), maxSteerRad)
}

// dlqr solves the infinite-horizon discrete-time LQR problem for
//
//	x_{k+1} = A x_k + b u_k,  J = sum x'Qx + r u²,  Q = diag(q),
//
// by iterating the Riccati difference equation to a fixed point:
//
//	P <- Q + A'PA - A'Pb (r + b'Pb)^-1 b'PA
//
// and returns the optimal gain k with u = -k x. With one input the Gram
// matrix r + b'Pb is a scalar. q must be non-negative and r positive.
func dlqr(a [stateDim][stateDim]float64, b, q [stateDim]float64, r float64) ([stateDim]float64, error) {
	at := transpose(a)
	var p [stateDim][stateDim]float64
	for i := range p {
		p[i][i] = q[i]
	}
	for iter := 0; iter < riccatiMaxIter; iter++ {
		btp := vecMul(b, p)
		gramInv := 1 / (r + dot(btp, b))
		atp := mul(at, p)
		apb := mulVec(atp, b)
		atpa := mul(atp, a)
		btpa := vecMul(btp, a)
		var next [stateDim][stateDim]float64
		for i := range next {
			next[i][i] = q[i]
			g := 0 + float64(apb[i]*gramInv)
			for j := range next[i] {
				next[i][j] = (next[i][j] + atpa[i][j]) - (0 + float64(g*btpa[j]))
			}
		}
		// Symmetrize against round-off drift, and measure the step.
		diff, pMax := 0.0, 0.0
		for i := range p {
			for j := range p[i] {
				v := (next[i][j] + next[j][i]) * 0.5
				diff = absMax(diff, v-p[i][j])
				pMax = absMax(pMax, p[i][j])
				p[i][j] = v
			}
		}
		if diff <= riccatiTol*(1+pMax) {
			return gain(p, a, b, r), nil
		}
	}
	return [stateDim]float64{}, errors.New("lateral: Riccati iteration did not converge (is (A,b) stabilizable?)")
}

// gain returns k = ((r + b'Pb)^-1 b') P A.
func gain(p, a [stateDim][stateDim]float64, b [stateDim]float64, r float64) [stateDim]float64 {
	gramInv := 1 / (r + dot(vecMul(b, p), b))
	var gb [stateDim]float64
	for j := range gb {
		gb[j] = 0 + float64(gramInv*b[j])
	}
	return vecMul(vecMul(gb, p), a)
}

// absMax returns max(m, |v|) for finite values. A non-finite v makes it
// NaN, and a NaN m stays NaN, so a blown-up iteration never passes the
// convergence test.
func absMax(m, v float64) float64 {
	a := math.Abs(v)
	switch {
	case math.IsInf(a, 1):
		return math.NaN()
	case a > m || math.IsNaN(a):
		return a
	}
	return m
}
