// Package poly implements complex polynomial evaluation and root finding.
//
// Root-MUSIC turns the noise-subspace projector into a conjugate-symmetric
// polynomial whose roots nearest the unit circle carry the beat frequencies;
// this package provides the Durand–Kerner (Weierstrass) simultaneous root
// finder used to extract them.
package poly

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// Poly is a complex polynomial stored coefficient-low-first:
// p(z) = C[0] + C[1] z + ... + C[n] z^n.
type Poly struct {
	C []complex128
}

// New builds a polynomial from low-order-first coefficients. Trailing
// (highest-order) zero coefficients are trimmed.
func New(coeffs ...complex128) Poly {
	n := len(coeffs)
	for n > 1 && coeffs[n-1] == 0 {
		n--
	}
	c := make([]complex128, n)
	copy(c, coeffs[:n])
	return Poly{C: c}
}

// Degree returns the polynomial degree (0 for constants, including the zero
// polynomial).
func (p Poly) Degree() int {
	if len(p.C) == 0 {
		return 0
	}
	return len(p.C) - 1
}

// Eval evaluates p at z with Horner's rule.
func (p Poly) Eval(z complex128) complex128 {
	var acc complex128
	for i := len(p.C) - 1; i >= 0; i-- {
		acc = acc*z + p.C[i]
	}
	return acc
}

// Monic returns p scaled so its leading coefficient is 1. It returns an
// error for the zero polynomial.
func (p Poly) Monic() (Poly, error) {
	if len(p.C) == 0 {
		return Poly{}, errors.New("poly: zero polynomial")
	}
	lead := p.C[len(p.C)-1]
	if lead == 0 {
		return Poly{}, errors.New("poly: zero leading coefficient")
	}
	c := make([]complex128, len(p.C))
	for i, v := range p.C {
		c[i] = v / lead
	}
	return Poly{C: c}, nil
}

// String renders the polynomial for debugging.
func (p Poly) String() string {
	s := ""
	for i, c := range p.C {
		if i > 0 {
			s += " + "
		}
		s += fmt.Sprintf("(%v)z^%d", c, i)
	}
	return s
}

// RootsOptions tunes the Durand–Kerner iteration.
type RootsOptions struct {
	// MaxIter bounds the number of simultaneous-update sweeps.
	// Zero means 500.
	MaxIter int
	// Tol is the convergence threshold on the largest root update per
	// sweep, relative to the root magnitude. Zero means 1e-12.
	Tol float64
}

// Roots finds all complex roots of p with the Durand–Kerner method.
// The polynomial must have degree >= 1 and a nonzero leading coefficient
// (use Monic or New, which trims).
func Roots(p Poly, opt RootsOptions) ([]complex128, error) {
	mp, err := p.Monic()
	if err != nil {
		return nil, err
	}
	n := mp.Degree()
	if n < 1 {
		return nil, errors.New("poly: degree must be >= 1")
	}
	maxIter := opt.MaxIter
	if maxIter == 0 {
		maxIter = 500
	}
	tol := opt.Tol
	if tol == 0 {
		tol = 1e-12
	}

	// Initial guesses: points on a circle of radius derived from the
	// Cauchy bound, at angles avoiding real-axis symmetry traps.
	bound := rootBound(mp)
	roots := make([]complex128, n)
	for i := range roots {
		theta := 2*math.Pi*float64(i)/float64(n) + 0.4
		roots[i] = cmplx.Rect(bound*0.5+0.1, theta)
	}

	for iter := 0; iter < maxIter; iter++ {
		maxDelta := 0.0
		for i := range roots {
			num := mp.Eval(roots[i])
			den := complex(1, 0)
			for j := range roots {
				if j != i {
					den *= roots[i] - roots[j]
				}
			}
			if den == 0 {
				// Perturb coincident estimates and continue.
				roots[i] += complex(1e-8, 1e-8)
				continue
			}
			delta := num / den
			roots[i] -= delta
			rel := cmplx.Abs(delta) / (1 + cmplx.Abs(roots[i]))
			if rel > maxDelta {
				maxDelta = rel
			}
		}
		if maxDelta < tol {
			return roots, nil
		}
	}
	// Accept if residuals are small even without per-step convergence.
	for _, r := range roots {
		if cmplx.Abs(mp.Eval(r)) > 1e-6*(1+math.Pow(cmplx.Abs(r), float64(n))) {
			return roots, fmt.Errorf("poly: Durand-Kerner did not converge after %d iterations", maxIter)
		}
	}
	return roots, nil
}

// rootBound returns the Cauchy bound 1 + max|c_i| for a monic polynomial:
// every root lies within this radius.
func rootBound(mp Poly) float64 {
	max := 0.0
	for _, c := range mp.C[:len(mp.C)-1] {
		if a := cmplx.Abs(c); a > max {
			max = a
		}
	}
	return 1 + max
}
