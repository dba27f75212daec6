// Package prbs implements pseudo-random binary sequence generation with
// Galois linear-feedback shift registers, plus the challenge schedulers the
// CRA-modified radar uses to decide when to suppress its probing signal.
//
// The paper modulates the radar's transmitted signal with a binary signal
// m(t) ∈ {0,1} generated pseudo-randomly; m(t) = 0 defines the challenge
// instants T_c at which the receiver must observe (near-)zero output. An
// m-sequence LFSR provides the standard hardware-friendly source for m(t).
package prbs

import "fmt"

// taps maps register length to a maximal-length (m-sequence) tap mask for a
// Galois LFSR. Bit i of the mask corresponds to stage i+1. These are the
// standard primitive-polynomial taps.
var taps = map[int]uint32{
	3:  0x6,    // x^3 + x^2 + 1
	4:  0xC,    // x^4 + x^3 + 1
	5:  0x14,   // x^5 + x^3 + 1
	6:  0x30,   // x^6 + x^5 + 1
	7:  0x60,   // x^7 + x^6 + 1
	8:  0xB8,   // x^8 + x^6 + x^5 + x^4 + 1
	9:  0x110,  // x^9 + x^5 + 1
	10: 0x240,  // x^10 + x^7 + 1
	11: 0x500,  // x^11 + x^9 + 1
	12: 0xE08,  // x^12 + x^11 + x^10 + x^4 + 1
	13: 0x1C80, // x^13 + x^12 + x^11 + x^8 + 1
	14: 0x3802, // x^14 + x^13 + x^12 + x^2 + 1
	15: 0x6000, // x^15 + x^14 + 1
	16: 0xD008, // x^16 + x^15 + x^13 + x^4 + 1
}

// LFSR is a Galois linear-feedback shift register producing a maximal-length
// binary sequence of period 2^n - 1.
type LFSR struct {
	state uint32
	mask  uint32
}

// NewLFSR returns an n-stage maximal-length LFSR (3 <= n <= 16) seeded with
// the given nonzero seed (only the low n bits are used; a zero seed after
// masking is replaced by 1, since the all-zero state is absorbing).
func NewLFSR(n int, seed uint32) (*LFSR, error) {
	mask, ok := taps[n]
	if !ok {
		return nil, fmt.Errorf("prbs: no m-sequence taps for length %d (want 3..16)", n)
	}
	s := seed & ((1 << uint(n)) - 1)
	if s == 0 {
		s = 1
	}
	return &LFSR{state: s, mask: mask}, nil
}

// NextBit advances the register one step and returns the output bit.
func (l *LFSR) NextBit() int {
	out := int(l.state & 1)
	l.state >>= 1
	if out == 1 {
		l.state ^= l.mask
	}
	return out
}
