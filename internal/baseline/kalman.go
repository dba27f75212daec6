package baseline

import "errors"

// Kalman is a constant-velocity Kalman filter over a scalar measurement,
// the model the detector ablation tracks the radar distance channel with:
// state x = [value, rate] at a unit step, x_{k+1} = A x + w with
// A = [[1, 1], [0, 1]], output y = C x + v with C = [1, 0], w ~ N(0, Q)
// and v ~ N(0, r).
//
// Each update is the matrix form written out for two states and one
// output: sums start from 0 and take their terms in matrix-product order,
// products with A's and C's unit entries are exact and left out, and the
// float64 conversions keep every stored product rounded on every
// platform. The golden fingerprint's A1 and A2 rows pin the bits.
type Kalman struct {
	x    [2]float64
	p, q [2][2]float64
	r    float64
}

// NewConstantVelocityKalman tracks a measurement of variance r that
// starts at v0, with white-acceleration process noise of intensity q.
func NewConstantVelocityKalman(q, r, v0 float64) (*Kalman, error) {
	if !(r > 0) {
		return nil, errors.New("baseline: measurement variance r must be positive")
	}
	return &Kalman{
		x: [2]float64{v0, 0},
		p: [2][2]float64{{r * 10, 0}, {0, 10}},
		q: [2][2]float64{{q / 3, q / 2}, {q / 2, q}},
		r: r,
	}, nil
}

// State returns the state estimate [value, rate].
func (k *Kalman) State() [2]float64 { return k.x }

// Predict runs the time update only (used while measurements are withheld
// during an attack): x <- A x, P <- A P Aᵀ + Q.
func (k *Kalman) Predict() {
	x, p, q := &k.x, &k.p, &k.q
	x[0], x[1] = 0+x[0]+x[1], 0+x[1]
	// Rows of A P, then (A P) Aᵀ + Q.
	t00, t01 := 0+p[0][0]+p[1][0], 0+p[0][1]+p[1][1]
	t10, t11 := 0+p[1][0], 0+p[1][1]
	p[0][0], p[0][1] = 0+t00+t01+q[0][0], 0+t01+q[0][1]
	p[1][0], p[1][1] = 0+t10+t11+q[1][0], 0+t11+q[1][1]
}

// Update runs a time update and then the measurement update with
// observation y. It returns the innovation y - C x and its covariance
// S = C P Cᵀ + r, both from the predicted state: innov²/s is the
// normalized innovation squared.
func (k *Kalman) Update(y float64) (innov, s float64) {
	k.Predict()
	x, p := &k.x, &k.p
	innov = y - (0 + x[0])
	s = 0 + p[0][0] + k.r
	sInv := 1 / s
	// Gain P Cᵀ S⁻¹.
	g0 := 0 + float64((0+p[0][0])*sInv)
	g1 := 0 + float64((0+p[1][0])*sInv)
	x[0] += 0 + float64(g0*innov)
	x[1] += 0 + float64(g1*innov)
	// P <- (I - K C) P, whose first column is [1 - g0, 0 - g1] and second
	// [0, 1]; then symmetrized against round-off.
	a0, a1 := 1-g0, 0-g1
	n00 := 0 + float64(a0*p[0][0])
	n01 := 0 + float64(a0*p[0][1])
	n10 := 0 + float64(a1*p[0][0]) + p[1][0]
	n11 := 0 + float64(a1*p[0][1]) + p[1][1]
	off := (n01 + n10) * 0.5
	p[0][0], p[0][1] = (n00+n00)*0.5, off
	p[1][0], p[1][1] = off, (n11+n11)*0.5
	return innov, s
}
