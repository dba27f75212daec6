package estimate

import "testing"

// Zero-allocation guards for the //safesense:hotpath estimator entry
// points at the case study's DefaultPredictorConfig: the hotpathalloc
// analyzer forbids the static allocation patterns; these tests enforce
// the same contract dynamically. Only Clone, taken at verified-clean
// challenge instants, may allocate.

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(200, f); avg != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, avg)
	}
}

func trainedPredictor(t *testing.T) *Predictor {
	t.Helper()
	p, err := NewPredictor(DefaultPredictorConfig())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 20; k++ {
		if _, err := p.Observe(100 - 0.5*float64(k)); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestRLSZeroAlloc(t *testing.T) {
	p := trainedPredictor(t)
	y := 0.0
	assertZeroAllocs(t, "RLS.Update", func() {
		y++
		if _, _, err := p.rls.Update([2]float64{1, 0}, y); err != nil {
			t.Fatal(err)
		}
	})
	assertZeroAllocs(t, "RLS.Translate", func() { p.rls.Translate(1 / timeScale) })
}

func TestPredictorZeroAlloc(t *testing.T) {
	p := trainedPredictor(t)
	y := 90.0
	assertZeroAllocs(t, "Predictor.Observe", func() {
		y -= 0.5
		if _, err := p.Observe(y); err != nil {
			t.Fatal(err)
		}
	})
	assertZeroAllocs(t, "Predictor.Predict", func() { p.Predict() })
	assertZeroAllocs(t, "Predictor.SkipStep", func() { p.SkipStep() })
}

func TestRecoveryEstimatorZeroAlloc(t *testing.T) {
	r, err := NewRecoveryEstimator(DefaultPredictorConfig())
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	r.SetTransitionHook(func(bool) { fired++ })
	d := 100.0
	observe := func() {
		d -= 0.3
		if err := r.Observe(d, -0.3, 29); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 20; k++ {
		observe()
	}
	assertZeroAllocs(t, "RecoveryEstimator.Observe", observe)
	assertZeroAllocs(t, "RecoveryEstimator.Predict", func() { r.Predict(29) })
	assertZeroAllocs(t, "RecoveryEstimator.CatchUp", r.CatchUp)
	// Alternating takeover and release crosses the hook every call.
	assertZeroAllocs(t, "RecoveryEstimator.Observe/Predict", func() {
		observe()
		r.Predict(29)
	})
	if fired == 0 {
		t.Fatal("transition hook never fired")
	}
}
