// Package stats provides the error metrics and detection-accuracy
// bookkeeping used to compare simulation traces against the paper's
// reported results.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// RMSE returns the root mean squared error between two equal-length series.
func RMSE(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(a) == 0 {
		return 0, errors.New("stats: empty input")
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(a))), nil
}

// MaxAbsErr returns the largest absolute difference.
func MaxAbsErr(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(a) == 0 {
		return 0, errors.New("stats: empty input")
	}
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m, nil
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Max returns the maximum of a slice (0 for empty input).
func Max(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// DetectionLatency returns flagStep - onsetStep, or -1 if the attack was
// never flagged (flagStep < 0).
func DetectionLatency(onsetStep, flagStep int) int {
	if flagStep < 0 {
		return -1
	}
	return flagStep - onsetStep
}

// Percentile returns the p-th percentile (0 <= p <= 100) of x using linear
// interpolation between closest ranks. The input is not modified. It
// returns NaN for an empty slice or an out-of-range p.
func Percentile(x []float64, p float64) float64 {
	if len(x) == 0 || p < 0 || p > 100 || math.IsNaN(p) {
		return math.NaN()
	}
	s := make([]float64, len(x))
	copy(s, x)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// Percentiles returns the requested percentiles of x in one sort pass,
// in the same order as ps. It returns an error for an empty input or an
// out-of-range p.
func Percentiles(x []float64, ps ...float64) ([]float64, error) {
	if len(x) == 0 {
		return nil, errors.New("stats: empty input")
	}
	s := make([]float64, len(x))
	copy(s, x)
	sort.Float64s(s)
	out := make([]float64, len(ps))
	for i, p := range ps {
		if p < 0 || p > 100 || math.IsNaN(p) {
			return nil, fmt.Errorf("stats: percentile %g out of range [0, 100]", p)
		}
		out[i] = percentileSorted(s, p)
	}
	return out, nil
}

// percentileSorted interpolates the p-th percentile of an ascending slice.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Histogram accumulates samples into equal-width bins over [Lo, Hi).
// Samples below Lo land in the first bin and samples at or above Hi in the
// last, so the tails remain visible without unbounded storage. The zero
// value is not usable; construct with NewHistogram.
type Histogram struct {
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	Counts []int   `json:"counts"`
	N      int     `json:"n"`
}

// NewHistogram builds a histogram with the given range and bin count.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins < 1 {
		return nil, fmt.Errorf("stats: histogram needs >= 1 bin, got %d", bins)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("stats: histogram range [%g, %g) is empty", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}, nil
}

// Observe adds one sample. NaNs are ignored.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := int(math.Floor((v - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts))))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.N++
}
