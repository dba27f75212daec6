package main

import (
	"strings"
	"testing"

	"safesense/internal/sim"
)

// TestReplayBitExact proves the layer replay does the work sim.Run does:
// at all four figure points, with the closed-form and the signal-level
// radar, it reproduces the measured, estimated and follower-speed series
// bit for bit, so the layer rows time the calls the run actually made.
func TestReplayBitExact(t *testing.T) {
	figures := map[string]func() sim.Scenario{
		"fig2a": sim.Fig2aDoS, "fig2b": sim.Fig2bDelay,
		"fig3a": sim.Fig3aDoS, "fig3b": sim.Fig3bDelay,
	}
	for name, mk := range figures {
		for _, signal := range []bool{false, true} {
			fresh := func() sim.Scenario {
				s := mk()
				s.SignalLevel = signal
				s.Seed = 7
				return s
			}
			s := fresh()
			t.Run(name+"/"+modeName(signal), func(t *testing.T) {
				res, err := sim.Run(s)
				if err != nil {
					t.Fatal(err)
				}
				if res.DetectedAt != paperDetectionStep {
					t.Fatalf("DetectedAt = %d, want %d", res.DetectedAt, paperDetectionStep)
				}
				rec := newRecorder()
				rec.beginRun(0)
				out, err := replay(fresh(), rec)
				rec.endRun()
				if err != nil {
					t.Fatal(err)
				}
				if err := compareSeries(res, out); err != nil {
					t.Fatal(err)
				}
				if len(out.Estimated.T) == 0 {
					t.Fatal("replay delivered no estimates under attack")
				}
				// Every step crosses the radar, the detector, the
				// controller and both vehicles.
				calls := map[layer]int{}
				for _, sp := range rec.spans[1:] {
					calls[sp.Name]++
					if sp.Parent != 0 || sp.End < sp.Start {
						t.Fatalf("bad span %+v", sp)
					}
				}
				radarLayer := layerRadarObserve
				if signal {
					radarLayer = layerRadarExtract
				}
				for l, want := range map[layer]int{radarLayer: s.Steps, layerCRAStep: s.Steps,
					layerACCStep: s.Steps, layerVehicleStep: 2 * s.Steps} {
					if calls[l] != want {
						t.Errorf("%s: %d calls, want %d", layerNames[l], calls[l], want)
					}
				}
			})
		}
	}
}

// TestCompareSeriesCatchesDrift makes sure the bit-exact check can fail.
func TestCompareSeriesCatchesDrift(t *testing.T) {
	res, err := sim.Run(sim.Fig2bDelay())
	if err != nil {
		t.Fatal(err)
	}
	out, err := replay(sim.Fig2bDelay(), &recorder{})
	if err != nil {
		t.Fatal(err)
	}
	out.Estimated.Y[3] += 1e-12
	if err := compareSeries(res, out); err == nil || !strings.Contains(err.Error(), sim.SeriesEstimated) {
		t.Fatalf("perturbed estimate not caught: %v", err)
	}
}

func TestCheckRun(t *testing.T) {
	good := `{"seed":5,"detected_at":182,"false_positives":0,"false_negatives":0}`
	if err := checkRun(200, []byte(good), 5); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		status int
		body   string
	}{
		{500, good},
		{200, `{"seed":5,"detected_at":185,"false_positives":0,"false_negatives":0}`},
		{200, `{"seed":5,"detected_at":182,"false_positives":1,"false_negatives":0}`},
		{200, `{"seed":6,"detected_at":182,"false_positives":0,"false_negatives":0}`},
		{200, `not json`},
	} {
		if err := checkRun(bad.status, []byte(bad.body), 5); err == nil {
			t.Errorf("checkRun(%d, %s) accepted a wrong answer", bad.status, bad.body)
		}
	}
}
