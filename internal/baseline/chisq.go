package baseline

import (
	"errors"
	"fmt"
)

// ChiSquareDetector is the residual-based detector the paper contrasts
// with CRA (Shoukry et al.'s PyCRA uses the same statistic): it tracks the
// measurement with a constant-velocity Kalman filter and raises an alarm
// when the windowed normalized-innovation-squared statistic exceeds a
// chi-square threshold. Unlike CRA it needs no hardware change, but it
// trades false positives against detection latency and offers no recovery.
type ChiSquareDetector struct {
	kf        *Kalman
	window    []float64
	widx      int
	filled    int
	threshold float64
	alarmed   bool

	detections []int
}

// NewChiSquareDetector builds a detector over a scalar measurement stream.
// window is the number of innovations averaged; threshold is the alarm
// level on the mean normalized innovation squared (for genuine Gaussian
// residuals the statistic has mean 1, so thresholds of 3–10 trade FPR
// against latency).
func NewChiSquareDetector(q, r, v0 float64, window int, threshold float64) (*ChiSquareDetector, error) {
	if window < 1 {
		return nil, fmt.Errorf("baseline: window must be >= 1, got %d", window)
	}
	if threshold <= 0 {
		return nil, errors.New("baseline: threshold must be positive")
	}
	kf, err := NewConstantVelocityKalman(q, r, v0)
	if err != nil {
		return nil, err
	}
	return &ChiSquareDetector{
		kf:        kf,
		window:    make([]float64, window),
		threshold: threshold,
	}, nil
}

// Predict advances the filter one step without a measurement, as at a
// CRA challenge instant, when the sensor is silent.
func (d *ChiSquareDetector) Predict() { d.kf.Predict() }

// Step consumes the step-k measurement and returns whether the detector is
// currently alarmed. The innovation is normalized by its predicted
// covariance S, the one the filter's gain uses.
func (d *ChiSquareDetector) Step(k int, y float64) bool {
	innov, s := d.kf.Update(y)
	nis := innov * innov / s
	d.window[d.widx] = nis
	d.widx = (d.widx + 1) % len(d.window)
	if d.filled < len(d.window) {
		d.filled++
	}
	if d.filled < len(d.window) {
		return d.alarmed
	}
	mean := 0.0
	for _, v := range d.window {
		mean += v
	}
	mean /= float64(len(d.window))
	was := d.alarmed
	d.alarmed = mean > d.threshold
	if d.alarmed && !was {
		d.detections = append(d.detections, k)
	}
	return d.alarmed
}
