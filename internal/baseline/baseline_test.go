package baseline

import (
	"math"
	"testing"

	"safesense/internal/noise"
)

func TestNewLMSValidation(t *testing.T) {
	if _, err := NewLMS(0, 0.5); err == nil {
		t.Fatal("order 0 should fail")
	}
	if _, err := NewLMS(3, 0); err == nil {
		t.Fatal("mu 0 should fail")
	}
	if _, err := NewLMS(3, 2); err == nil {
		t.Fatal("mu 2 should fail")
	}
}

func TestLMSConverges(t *testing.T) {
	want := []float64{1.2, -0.4}
	l, _ := NewLMS(2, 0.5)
	src := noise.NewSource(1)
	for k := 0; k < 5000; k++ {
		h := src.GaussianVec(2, 0, 1)
		y := want[0]*h[0] + want[1]*h[1]
		if _, _, err := l.Update(h, y); err != nil {
			t.Fatal(err)
		}
	}
	got := l.w
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.02 {
			t.Fatalf("weights = %v, want %v", got, want)
		}
	}
}

func TestLMSRejectsWrongLength(t *testing.T) {
	l, _ := NewLMS(3, 0.5)
	if _, _, err := l.Update([]float64{1}, 0); err == nil {
		t.Fatal("short regressor should fail")
	}
}

func TestLMSSlowerThanRLSOnCorrelatedInput(t *testing.T) {
	// With strongly correlated regressors LMS converges slowly; verify it
	// at least improves monotonically-ish and stays stable (no NaN).
	l, _ := NewLMS(2, 0.8)
	src := noise.NewSource(2)
	prev := 0.0
	for k := 0; k < 2000; k++ {
		base := src.Gaussian(0, 1)
		h := []float64{base, base + 0.01*src.Gaussian(0, 1)}
		y := 2*h[0] - h[1]
		_, e, err := l.Update(h, y)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatal("LMS diverged")
		}
		prev = e
	}
	_ = prev
}

func TestKalmanValidation(t *testing.T) {
	for _, r := range []float64{0, -1, math.NaN()} {
		if _, err := NewConstantVelocityKalman(0.01, r, 0); err == nil {
			t.Errorf("r = %v should fail", r)
		}
	}
}

func TestKalmanTracksConstantVelocityTruth(t *testing.T) {
	kf, err := NewConstantVelocityKalman(0.01, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	src := noise.NewSource(3)
	// Truth: starts at 100, decreasing 0.5/step.
	for k := 0; k < 200; k++ {
		truth := 100 - 0.5*float64(k)
		kf.Update(truth + src.Gaussian(0, 1))
	}
	x := kf.State()
	wantPos := 100 - 0.5*199
	if math.Abs(x[0]-wantPos) > 1.0 {
		t.Fatalf("position = %v, want ~%v", x[0], wantPos)
	}
	if math.Abs(x[1]-(-0.5)) > 0.2 {
		t.Fatalf("rate = %v, want ~-0.5", x[1])
	}
}

func TestKalmanPredictGrowsCovariance(t *testing.T) {
	kf, _ := NewConstantVelocityKalman(0.1, 1, 0)
	before := kf.p[0][0] + kf.p[1][1]
	kf.Predict()
	after := kf.p[0][0] + kf.p[1][1]
	if after <= before {
		t.Fatalf("covariance should grow on predict: %v -> %v", before, after)
	}
}

func TestKalmanCovarianceShrinksOnUpdate(t *testing.T) {
	kf, _ := NewConstantVelocityKalman(0.01, 1, 0)
	kf.Predict()
	pre := kf.p[0][0]
	kf.Update(0)
	post := kf.p[0][0]
	if post >= pre {
		t.Fatalf("position variance should shrink on update: %v -> %v", pre, post)
	}
}

func TestChiSquareValidation(t *testing.T) {
	if _, err := NewChiSquareDetector(0.01, 1, 0, 0, 5); err == nil {
		t.Fatal("window 0 should fail")
	}
	if _, err := NewChiSquareDetector(0.01, 1, 0, 5, 0); err == nil {
		t.Fatal("threshold 0 should fail")
	}
	if _, err := NewChiSquareDetector(0.01, 0, 0, 5, 5); err == nil {
		t.Fatal("r 0 should fail")
	}
}

func TestChiSquareQuietOnCleanData(t *testing.T) {
	d, _ := NewChiSquareDetector(0.05, 1, 100, 8, 8)
	src := noise.NewSource(4)
	for k := 0; k < 300; k++ {
		truth := 100 - 0.3*float64(k)
		if d.Step(k, truth+src.Gaussian(0, 1)) && k > 30 {
			t.Fatalf("false alarm at %d", k)
		}
	}
	if len(d.detections) > 1 {
		t.Fatalf("spurious detections: %v", d.detections)
	}
}

func TestChiSquareCatchesGrossCorruption(t *testing.T) {
	d, _ := NewChiSquareDetector(0.05, 1, 100, 8, 8)
	src := noise.NewSource(5)
	attackAt := 150
	detected := -1
	for k := 0; k < 300; k++ {
		y := 100 - 0.3*float64(k) + src.Gaussian(0, 1)
		if k >= attackAt {
			y = 240 // DoS-style corruption
		}
		if d.Step(k, y) && detected < 0 {
			detected = k
		}
	}
	if detected < attackAt {
		t.Fatalf("alarm before attack at %d", detected)
	}
	if detected > attackAt+10 {
		t.Fatalf("detection too slow: %d", detected)
	}
}

func TestChiSquareMissesStealthyOffset(t *testing.T) {
	// A +6 m offset comparable to the noise floor is hard for residual
	// detection without a long window — the gap CRA closes. Assert the
	// chi-square detector does NOT fire within the first few steps of a
	// small-offset attack (latency > CRA's challenge-aligned detection).
	d, _ := NewChiSquareDetector(0.05, 4, 100, 8, 8)
	src := noise.NewSource(6)
	attackAt := 150
	for k := 0; k < attackAt+3; k++ {
		y := 100 - 0.3*float64(k) + src.Gaussian(0, 2)
		if k >= attackAt {
			y += 6
		}
		d.Step(k, y)
	}
	if d.alarmed {
		t.Fatal("chi-square should not catch a +6 m offset within 3 steps at this noise level")
	}
}

// TestChiSquareNISHasUnitMean: on data drawn from the filter's own model
// the normalized innovation squared averages 1 once the filter settles,
// but only if each innovation is divided by its predicted covariance.
// Dividing by the previous step's posterior one inflates it by about
// 1.4 at these settings, the A2 detector ablation's.
func TestChiSquareNISHasUnitMean(t *testing.T) {
	const q, r, n, settle = 0.05, 0.5, 20000, 100
	d, err := NewChiSquareDetector(q, r, 100, 1, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	src := noise.NewSource(7)
	x := [2]float64{100, 0}
	sum := 0.0
	for k := 0; k < n; k++ {
		// x <- A x + w, w ~ N(0, Q) drawn through Q's Cholesky factor
		// sqrt(q) [[1/sqrt(3), 0], [sqrt(3)/2, 1/2]].
		z0, z1 := src.Gaussian(0, 1), src.Gaussian(0, 1)
		x = [2]float64{
			x[0] + x[1] + math.Sqrt(q/3)*z0,
			x[1] + math.Sqrt(3*q)/2*z0 + math.Sqrt(q/4)*z1,
		}
		d.Step(k, x[0]+src.Gaussian(0, math.Sqrt(r)))
		if k >= settle {
			sum += d.window[0]
		}
	}
	if mean := sum / (n - settle); math.Abs(mean-1) > 0.05 {
		t.Fatalf("mean NIS = %.3f, want 1 ± 0.05", mean)
	}
}
