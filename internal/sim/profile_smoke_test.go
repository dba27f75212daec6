package sim_test

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"

	"safesense/internal/obs/profile"
	"safesense/internal/radar"
	"safesense/internal/sim"
)

// TestProfileSmoke is the continuous-profiling CI gate (make
// profile-smoke): a figure-level scenario on the high-fidelity
// root-MUSIC pipeline runs under the CPU profiler with phase labels
// enabled, and the capture — read by profile.ReadShares, the reader
// behind the phase-share gauge — must be non-empty, its phase shares
// must sum to one, and beat_extraction must be the largest labeled
// phase (the paper's pipeline spends its time extracting beat
// frequencies, and the labels must attribute that correctly). With
// PROFILE_SMOKE_OUT set, the shares are written there as JSON for the
// CI artifact.
func TestProfileSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("needs ~2s of profiled wall time")
	}
	s := sim.Fig2aDoS()
	s.SignalLevel = true
	s.Extractor = radar.MUSICExtractor{}

	profile.Enable()
	defer profile.Disable()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	var runErr error
	for i := 0; i < 2 && runErr == nil; i++ {
		_, runErr = sim.Run(s)
	}
	pprof.StopCPUProfile()
	if runErr != nil {
		t.Fatal(runErr)
	}

	sh, err := profile.ReadShares(buf.Bytes())
	if err != nil {
		t.Fatalf("reading own capture: %v", err)
	}

	if sh.TotalSamples == 0 || sh.Total == 0 {
		t.Fatal("empty capture")
	}
	var shareSum float64
	for _, ph := range sh.Phases {
		shareSum += ph.Share
	}
	if shareSum < 0.999 || shareSum > 1.001 {
		t.Fatalf("phase shares sum to %v, want 1 (phases: %+v)", shareSum, sh.Phases)
	}
	// Largest *labeled* phase must be beat extraction: root-MUSIC
	// dominates the signal-level pipeline. The unlabeled bucket (GC,
	// runtime, test harness) is excluded from the comparison.
	beat := sh.PhaseShare(sim.PhaseBeatExtraction)
	if beat == 0 {
		t.Fatalf("no beat_extraction samples; phases: %+v", sh.Phases)
	}
	for _, name := range sim.PhaseNames() {
		if name == sim.PhaseBeatExtraction {
			continue
		}
		if share := sh.PhaseShare(name); share >= beat {
			t.Fatalf("phase %s share %.3f >= beat_extraction %.3f; phases: %+v",
				name, share, beat, sh.Phases)
		}
	}

	if out := os.Getenv("PROFILE_SMOKE_OUT"); out != "" {
		data, err := json.MarshalIndent(sh, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			t.Fatalf("writing %s: %v", out, err)
		}
		t.Logf("wrote %s (%d samples, beat_extraction %.1f%%)", out, sh.TotalSamples, beat*100)
	}
}
