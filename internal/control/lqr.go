// Package control provides the discrete-time linear-quadratic regulator
// synthesis used by the lateral (lane-keeping) extension — the paper's
// stated future work of adding lateral dynamics to the case study. Only
// dense iterations over internal/mat are used; dimensions stay tiny.
package control

import (
	"errors"
	"fmt"

	"safesense/internal/mat"
)

// DLQR solves the infinite-horizon discrete-time LQR problem for
//
//	x_{k+1} = A x_k + B u_k,  J = sum x'Qx + u'Ru,
//
// by iterating the Riccati difference equation to a fixed point:
//
//	P <- Q + A'PA - A'PB (R + B'PB)^-1 B'PA
//
// and returns the optimal gain K with u = -K x, plus the converged P.
// Q must be symmetric positive semidefinite and R symmetric positive
// definite (diagonal matrices are the usual choice here).
func DLQR(a, b, q, r *mat.Dense, maxIter int, tol float64) (k, p *mat.Dense, err error) {
	n, n2 := a.Dims()
	if n != n2 {
		return nil, nil, errors.New("control: A must be square")
	}
	bn, m := b.Dims()
	if bn != n {
		return nil, nil, fmt.Errorf("control: B has %d rows, want %d", bn, n)
	}
	if qr, qc := q.Dims(); qr != n || qc != n {
		return nil, nil, errors.New("control: Q dimension mismatch")
	}
	if rr, rc := r.Dims(); rr != m || rc != m {
		return nil, nil, errors.New("control: R dimension mismatch")
	}
	if !q.IsSymmetric(1e-9 * (1 + q.MaxAbs())) {
		return nil, nil, errors.New("control: Q must be symmetric")
	}
	if !r.IsSymmetric(1e-9 * (1 + r.MaxAbs())) {
		return nil, nil, errors.New("control: R must be symmetric")
	}
	if maxIter <= 0 {
		maxIter = 10000
	}
	if tol <= 0 {
		tol = 1e-12
	}
	at := a.T()
	bt := b.T()
	p = q.Clone()
	for iter := 0; iter < maxIter; iter++ {
		btp := bt.Mul(p)
		gram := r.Add(btp.Mul(b)) // R + B'PB
		gramInv, err := mat.Inverse(gram)
		if err != nil {
			return nil, nil, fmt.Errorf("control: R + B'PB singular: %w", err)
		}
		apb := at.Mul(p).Mul(b)
		next := q.Add(at.Mul(p).Mul(a)).Sub(apb.Mul(gramInv).Mul(btp.Mul(a)))
		// Symmetrize against round-off drift.
		next = next.Add(next.T()).Scale(0.5)
		if next.Sub(p).MaxAbs() <= tol*(1+p.MaxAbs()) {
			p = next
			kGain, err := gainFrom(p, a, b, r)
			if err != nil {
				return nil, nil, err
			}
			return kGain, p, nil
		}
		p = next
	}
	return nil, nil, errors.New("control: Riccati iteration did not converge (is (A,B) stabilizable?)")
}

func gainFrom(p, a, b, r *mat.Dense) (*mat.Dense, error) {
	bt := b.T()
	gram := r.Add(bt.Mul(p).Mul(b))
	gramInv, err := mat.Inverse(gram)
	if err != nil {
		return nil, err
	}
	return gramInv.Mul(bt).Mul(p).Mul(a), nil
}
