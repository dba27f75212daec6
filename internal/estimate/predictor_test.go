package estimate

import (
	"math"
	"testing"

	"safesense/internal/noise"
)

func TestNewPredictorValidation(t *testing.T) {
	if _, err := NewPredictor(PredictorConfig{Lambda: 2, Delta: 1}); err == nil {
		t.Fatal("bad lambda should fail")
	}
	if _, err := NewPredictor(PredictorConfig{Lambda: 0.9, Delta: -1}); err == nil {
		t.Fatal("bad delta should fail")
	}
	if _, err := NewPredictor(DefaultPredictorConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestPredictorLearnsLinearTrend(t *testing.T) {
	// Train on y_k = 100 - 0.5k (a closing gap); free-run predictions must
	// continue the trend.
	p, _ := NewPredictor(DefaultPredictorConfig())
	for k := 0; k < 150; k++ {
		if _, err := p.Observe(100 - 0.5*float64(k)); err != nil {
			t.Fatal(err)
		}
	}
	if !p.Ready() {
		t.Fatal("predictor should be ready")
	}
	for j := 1; j <= 100; j++ {
		got := p.Predict()
		want := 100 - 0.5*float64(149+j)
		if math.Abs(got-want) > 1.0 {
			t.Fatalf("free-run step %d: %v, want %v", j, got, want)
		}
	}
	if !p.FreeRunning() {
		t.Fatal("FreeRunning should be true after Predict")
	}
	if s := p.Slope(); math.Abs(s-(-0.5)) > 0.01 {
		t.Fatalf("Slope = %v, want -0.5", s)
	}
}

func TestPredictorStableLongFreeRunInNoise(t *testing.T) {
	// The regression against the AR divergence that motivated the
	// polynomial basis: train on a noisy trend, free-run 119 steps (the
	// paper's attack window), and require the extrapolation error to stay
	// bounded by the trend's own scale.
	p, _ := NewPredictor(DefaultPredictorConfig())
	src := noise.NewSource(3)
	slope := -0.32
	for k := 0; k < 182; k++ {
		p.Observe(100 + slope*float64(k) + src.Gaussian(0, 1.5))
	}
	for j := 1; j <= 119; j++ {
		got := p.Predict()
		want := 100 + slope*float64(181+j)
		if math.Abs(got-want) > 15 {
			t.Fatalf("free-run step %d: error %v too large", j, got-want)
		}
	}
}

func TestPredictorOneStepAccuracyOnSmoothSignal(t *testing.T) {
	p, _ := NewPredictor(DefaultPredictorConfig())
	src := noise.NewSource(1)
	var worst float64
	for k := 0; k < 400; k++ {
		y := 50 + 20*math.Sin(0.02*float64(k)) + src.Gaussian(0, 0.1)
		pred, err := p.Observe(y)
		if err != nil {
			t.Fatal(err)
		}
		if k > 100 {
			if d := math.Abs(pred - y); d > worst {
				worst = d
			}
		}
	}
	if worst > 1.5 {
		t.Fatalf("worst one-step error %v too large", worst)
	}
}

func TestPredictorRecoversAfterAttack(t *testing.T) {
	// Train, free-run (attack), then resume observing: the filter must
	// keep producing sensible predictions.
	p, _ := NewPredictor(DefaultPredictorConfig())
	for k := 0; k < 100; k++ {
		p.Observe(100 - 0.3*float64(k))
	}
	for j := 0; j < 30; j++ {
		p.Predict()
	}
	// Truth continued the trend during the attack.
	for k := 130; k < 180; k++ {
		pred, err := p.Observe(100 - 0.3*float64(k))
		if err != nil {
			t.Fatal(err)
		}
		if k > 140 && math.Abs(pred-(100-0.3*float64(k))) > 3 {
			t.Fatalf("post-attack prediction at %d off by %v", k, pred-(100-0.3*float64(k)))
		}
	}
	if p.FreeRunning() {
		t.Fatal("FreeRunning should clear after Observe")
	}
}

func TestPredictorTracksSlopeChange(t *testing.T) {
	// The forgetting factor must adapt the trend after a regime change
	// (the Figure 3 leader switches from decel to accel).
	p, _ := NewPredictor(DefaultPredictorConfig())
	for k := 0; k < 150; k++ {
		p.Observe(100 - 0.3*float64(k))
	}
	for k := 150; k < 250; k++ {
		p.Observe(100 - 0.3*150 + 0.1*float64(k-150))
	}
	if s := p.Slope(); math.Abs(s-0.1) > 0.02 {
		t.Fatalf("Slope after regime change = %v, want ~0.1", s)
	}
}

func TestPredictorNotReadyEarly(t *testing.T) {
	p, _ := NewPredictor(DefaultPredictorConfig())
	if p.Ready() {
		t.Fatal("ready with no data")
	}
	p.Observe(1)
	if p.Ready() {
		t.Fatal("a linear fit needs two points")
	}
	p.Observe(2)
	if !p.Ready() {
		t.Fatal("should be ready after two points")
	}
}

func TestPairPredictor(t *testing.T) {
	pp, err := NewPairPredictor(DefaultPredictorConfig())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 120; k++ {
		if err := pp.Observe(100-0.4*float64(k), -0.4); err != nil {
			t.Fatal(err)
		}
	}
	d, v := pp.Predict()
	wantD := 100 - 0.4*120
	if math.Abs(d-wantD) > 1.5 {
		t.Fatalf("distance prediction = %v, want ~%v", d, wantD)
	}
	if math.Abs(v-(-0.4)) > 0.3 {
		t.Fatalf("velocity prediction = %v, want ~-0.4", v)
	}
}

func TestPairPredictorClampsNegativeDistance(t *testing.T) {
	pp, _ := NewPairPredictor(DefaultPredictorConfig())
	for k := 0; k < 100; k++ {
		pp.Observe(30-0.4*float64(k), -0.4) // crosses zero at k = 75
	}
	for j := 0; j < 50; j++ {
		d, _ := pp.Predict()
		if d < 0 {
			t.Fatalf("negative distance prediction %v", d)
		}
	}
}

func TestPairPredictorBadConfig(t *testing.T) {
	if _, err := NewPairPredictor(PredictorConfig{}); err == nil {
		t.Fatal("bad config should fail")
	}
}
