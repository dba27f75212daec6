package cfar

import (
	"math"
	"testing"

	"safesense/internal/dsp/fft"
	"safesense/internal/noise"
	"safesense/internal/radar"
)

// periodogram is the rectangular-window periodogram |FFT(x)|^2 / N, the
// spectrum CA-CFAR runs on.
func periodogram(x []complex128) []float64 {
	psd := make([]float64, len(x))
	for i, v := range fft.Forward(x) {
		psd[i] = (real(v)*real(v) + imag(v)*imag(v)) / float64(len(x))
	}
	return psd
}

// binHz is the frequency of DFT bin k of n at sample rate fs; bins above
// n/2 are negative frequencies.
func binHz(k, n int, fs float64) float64 {
	if k > n/2 {
		k -= n
	}
	return float64(k) * fs / float64(n)
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{TrainCells: 0, GuardCells: 1, Pfa: 1e-3},
		{TrainCells: 8, GuardCells: -1, Pfa: 1e-3},
		{TrainCells: 8, GuardCells: 1, Pfa: 0},
		{TrainCells: 8, GuardCells: 1, Pfa: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %d should fail", i)
		}
	}
}

func TestThresholdMonotoneInPfa(t *testing.T) {
	strict := Config{TrainCells: 16, GuardCells: 2, Pfa: 1e-6}
	loose := Config{TrainCells: 16, GuardCells: 2, Pfa: 1e-2}
	if strict.Threshold() <= loose.Threshold() {
		t.Fatal("lower Pfa must raise the threshold")
	}
}

func TestDetectFindsStrongTone(t *testing.T) {
	p := radar.BoschLRR2()
	src := noise.NewSource(1)
	sweep, err := p.SynthesizeSweep(100, 0, 512, src)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := Detect(periodogram(sweep.Up), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no detections on a strong target")
	}
	// The strongest hit sits at the beat frequency.
	best := hits[0]
	for _, h := range hits {
		if h.Power > best.Power {
			best = h
		}
	}
	fbUp, _ := p.BeatFrequencies(100, 0)
	if got := binHz(best.Bin, 512, p.SampleRateHz); math.Abs(got-fbUp) > 2*p.SampleRateHz/512 {
		t.Fatalf("CFAR peak at %v Hz, want %v", got, fbUp)
	}
}

func TestFalseAlarmRateNearDesign(t *testing.T) {
	// Noise-only spectra: the empirical false-alarm rate should sit near
	// the design Pfa (same order of magnitude).
	src := noise.NewSource(2)
	cfg := Config{TrainCells: 16, GuardCells: 2, Pfa: 1e-3}
	var spectra [][]float64
	for i := 0; i < 60; i++ {
		x := src.ComplexNoiseVec(512, 1)
		spectra = append(spectra, periodogram(x))
	}
	rate, err := FalseAlarmRate(spectra, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rate > 10*cfg.Pfa {
		t.Fatalf("false alarm rate %v far above design %v", rate, cfg.Pfa)
	}
	if rate == 0 {
		// 512*60 ≈ 31k cells at 1e-3: expect ~31 alarms; zero indicates a
		// broken threshold.
		t.Fatal("no false alarms at all — threshold too high")
	}
}

func TestDetectSpectrumTooShort(t *testing.T) {
	if _, err := Detect(make([]float64, 8), DefaultConfig()); err == nil {
		t.Fatal("short spectrum should fail")
	}
}

func TestJammedSpectrumRaisesNoiseEstimate(t *testing.T) {
	// Under broadband jamming, CA-CFAR's noise estimate rises with the
	// jam floor and a weak target no longer crosses the threshold —
	// exactly the DoS blinding mechanism.
	p := radar.BoschLRR2()
	src := noise.NewSource(3)
	sweep, err := p.SynthesizeSweep(190, 0, 512, src) // weak (far) target
	if err != nil {
		t.Fatal(err)
	}
	psdClean := periodogram(sweep.Up)
	jammed := radar.AddNoiseSweep(sweep, 1e-9, src) // jam ≫ return, in place
	psdJam := periodogram(jammed.Up)

	cfg := DefaultConfig()
	hitsClean, err := Detect(psdClean, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hitsJam, err := Detect(psdJam, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(hitsClean) == 0 {
		t.Fatal("weak target should still be detectable in clean noise")
	}
	// Under jamming the target's bin must no longer be the detection set's
	// dominant member (usually no hits at all; occasional jam spikes may
	// alarm elsewhere).
	fbUp, _ := p.BeatFrequencies(190, 0)
	binWidth := p.SampleRateHz / 512
	for _, h := range hitsJam {
		f := float64(h.Bin) * binWidth
		if math.Abs(f-fbUp) < 2*binWidth {
			t.Fatalf("target still detected under jamming at bin %d", h.Bin)
		}
	}
}

func TestFalseAlarmRateEmptyInput(t *testing.T) {
	if _, err := FalseAlarmRate(nil, DefaultConfig()); err == nil {
		t.Fatal("empty input should fail")
	}
}
