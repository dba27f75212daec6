package stats

import (
	"fmt"
	"math"
	"slices"
)

// MaxTerms is the most terms an ExactSum can hold. Each term is at most
// half an ulp of the next larger one, so exponents fall by at least 53
// per term. A fall of exactly 53 lands on a power of two whose
// remainder points toward zero, where floats are twice as dense, so the
// next fall is at least 54; a later 53 must follow a fall of at least
// 55. So n falls total at least 54n-1. A term with a smaller one below
// it has exponent at least -1021 (half its ulp reaches 2^-1074) and the
// top exponent is 1023, so m terms need 54(m-2)-1 <= 2044: m <= 39.
// Powers of two 54 exponents apart, 2^1023 down to 2^-1029, reach it.
const MaxTerms = 39

// ExactSum accumulates float64 values without rounding error, with
// Shewchuk's non-overlapping expansions (Discrete Comput Geom 1997, the
// method behind Python's math.fsum). Its terms, smallest first, are the
// canonical expansion of the exact sum: the largest is the sum rounded
// to nearest-even, the next is the rest rounded the same way, and so
// on. So the terms, the JSON form (the list of terms) and Value depend
// only on the multiset of values added. A sum that has seen values has
// at least one term (0 for an exact zero); the zero value is empty.
type ExactSum []float64

// Add adds x exactly, in place. A running sum that overflows ends as
// one non-finite term, which Validate refuses.
func (s *ExactSum) Add(x float64) {
	var pbuf, tbuf [MaxTerms + 2]float64
	p := grow(append(pbuf[:0], *s...), x)
	top := tbuf[:0] // canonical terms, largest first
	for len(top) == 0 || len(p) > 0 {
		t := roundExpansion(p)
		top = append(top, t)
		if math.IsInf(t, 0) || math.IsNaN(t) {
			break
		}
		p = grow(p, -t)
	}
	slices.Reverse(top)
	*s = append((*s)[:0], top...)
}

// Merge returns the exact sum of s and o: o's terms fed through Add
// onto a copy of s. Neither operand is modified.
func (s ExactSum) Merge(o ExactSum) ExactSum {
	out := append(ExactSum(nil), s...)
	for _, x := range o {
		out.Add(x)
	}
	return out
}

// Value returns the sum rounded to the nearest float64, ties to even
// (0 for the empty sum).
func (s ExactSum) Value() float64 {
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}

// Validate checks that s is a sum Add could have built: at most
// MaxTerms terms, in canonical form, with a finite value. Decoded sums
// must pass it before Value or Merge can be trusted.
func (s ExactSum) Validate() error {
	if len(s) > MaxTerms {
		return fmt.Errorf("stats: exact sum has %d terms, at most %d possible", len(s), MaxTerms)
	}
	var c ExactSum // rebuilt from the terms; a non-finite term or an overflow leaves it non-finite
	for _, x := range s {
		c.Add(x)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if v := c.Value(); math.IsInf(v, 0) || math.IsNaN(v) || !slices.EqualFunc(c, s, same) {
		return fmt.Errorf("stats: exact sum terms %v not finite and canonical", []float64(s))
	}
	return nil
}

// grow adds x to the non-overlapping expansion p (smallest magnitude
// first) with one two-sum pass, dropping zero terms, and returns the
// grown expansion in p's storage.
func grow(p []float64, x float64) []float64 {
	i := 0
	for _, y := range p {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		lo := y - (hi - x)
		if lo != 0 {
			p[i] = lo
			i++
		}
		x = hi
	}
	if x != 0 {
		return append(p[:i], x)
	}
	return p[:i]
}

// roundExpansion returns the exact value of the non-overlapping
// expansion p rounded to nearest-even: add terms from the top until the
// sum becomes inexact, then correct a half-way case that the remaining
// terms push off the tie.
//
//safesense:floatcmp-helper
func roundExpansion(p []float64) float64 {
	n := len(p)
	if n == 0 {
		return 0
	}
	n--
	hi, lo := p[n], 0.0
	for n > 0 {
		x := hi
		n--
		y := p[n]
		hi = x + y
		lo = y - (hi - x)
		if lo != 0 {
			break
		}
	}
	if n > 0 && (lo < 0 && p[n-1] < 0 || lo > 0 && p[n-1] > 0) {
		y := float64(lo * 2)
		if x := hi + y; x-hi == y {
			hi = x
		}
	}
	return hi
}
