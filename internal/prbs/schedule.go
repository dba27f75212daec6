package prbs

import (
	"fmt"
	"slices"
)

// Schedule decides, for each discrete time step k, whether the radar issues
// a challenge (suppresses its probing signal, m(k) = 0). This is the
// "listzero" input of the paper's Algorithm 2.
type Schedule interface {
	// Challenge reports whether step k is a challenge instant (k ∈ T_c).
	Challenge(k int) bool
}

// FixedSchedule challenges at an explicit set of time steps. The paper's
// figures use challenge instants k = 15, 50, 175, ... — a fixed schedule
// pinned so the attack onset at k = 182 is probed immediately. The steps
// are kept sorted and distinct, so a lookup is a binary search.
type FixedSchedule struct {
	steps []int
}

// NewFixedSchedule builds a schedule from the given challenge steps.
func NewFixedSchedule(steps ...int) *FixedSchedule {
	sorted := slices.Clone(steps)
	slices.Sort(sorted)
	return &FixedSchedule{steps: slices.Compact(sorted)}
}

// Challenge implements Schedule.
func (s *FixedSchedule) Challenge(k int) bool {
	_, found := slices.BinarySearch(s.steps, k)
	return found
}

// LFSRSchedule derives challenge instants from an m-sequence: step k is a
// challenge when a window of LFSR bits is all zero, giving an average
// challenge rate of about 2^-w for window width w. The schedule is
// deterministic in (register length, seed, width) but unpredictable to an
// attacker who does not know the seed — the security property CRA needs.
type LFSRSchedule struct {
	bits []int
}

// NewLFSRSchedule builds a pseudo-random schedule covering steps
// [0, horizon). Width w >= 1 sets the challenge rate ~2^-w.
func NewLFSRSchedule(regLen int, seed uint32, w, horizon int) (*LFSRSchedule, error) {
	if w < 1 {
		return nil, fmt.Errorf("prbs: width must be >= 1, got %d", w)
	}
	if horizon < 0 {
		return nil, fmt.Errorf("prbs: negative horizon %d", horizon)
	}
	l, err := NewLFSR(regLen, seed)
	if err != nil {
		return nil, err
	}
	// Pre-draw w bits per step.
	bits := make([]int, horizon)
	for k := 0; k < horizon; k++ {
		allZero := 1
		for i := 0; i < w; i++ {
			if l.NextBit() != 0 {
				allZero = 0
			}
		}
		bits[k] = allZero
	}
	return &LFSRSchedule{bits: bits}, nil
}

// Challenge implements Schedule. Steps beyond the horizon are never
// challenges.
func (s *LFSRSchedule) Challenge(k int) bool {
	if k < 0 || k >= len(s.bits) {
		return false
	}
	return s.bits[k] == 1
}

// Steps returns all challenge steps within the horizon.
func (s *LFSRSchedule) Steps() []int {
	var out []int
	for k, b := range s.bits {
		if b == 1 {
			out = append(out, k)
		}
	}
	return out
}

// Rate returns the fraction of steps that are challenges.
func (s *LFSRSchedule) Rate() float64 {
	if len(s.bits) == 0 {
		return 0
	}
	n := 0
	for _, b := range s.bits {
		n += b
	}
	return float64(n) / float64(len(s.bits))
}

// PaperFigureSchedule returns the fixed challenge schedule used to reproduce
// Figures 2 and 3: it includes the instants the paper calls out explicitly
// (k = 15, 50, 175) plus pseudo-random instants, and pins a challenge at
// k = 182 so the attack beginning there is detected at k = 182 exactly, as
// reported in Section 6.2.
func PaperFigureSchedule() *FixedSchedule {
	return NewFixedSchedule(15, 50, 107, 144, 175, 182, 203, 230, 261, 290)
}
