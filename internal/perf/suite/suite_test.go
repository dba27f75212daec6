package suite

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"safesense/internal/perf"
)

func TestDefaultRegistryShape(t *testing.T) {
	g := Default()
	want := []string{
		"fig2a_dos", "fig2a_dos_untimed", "fig2b_delay", "fig3a_dos", "fig3b_delay",
		"s1_signal_dos", "s1_signal_delay",
		"kernel_root_music_256", "kernel_noise_seed", "kernel_fft_1024", "kernel_recovery_estimator",
		"kernel_cra_check", "kernel_synthesize_sweep", "kernel_beat_extract_128",
		"kernel_signal_measure",
	}
	for _, w := range []int{1, 2, 4, 8} {
		if w <= runtime.NumCPU() {
			want = append(want, fmt.Sprintf("campaign_w%d", w))
		}
	}
	got := g.Scenarios()
	if len(got) != len(want) {
		t.Fatalf("registry has %d scenarios, want %d", len(got), len(want))
	}
	for i, name := range want {
		if got[i].Name != name {
			t.Errorf("scenario %d = %q, want %q", i, got[i].Name, name)
		}
		if got[i].Doc == "" || got[i].Group == "" {
			t.Errorf("scenario %q missing doc/group", got[i].Name)
		}
	}
}

// TestCampaignScenariosFitTheCPUs: campaign_wN is registered only for
// worker counts the machine has CPUs for, and campaign_w1 always is.
func TestCampaignScenariosFitTheCPUs(t *testing.T) {
	for _, tc := range []struct {
		cpus int
		want []string
	}{
		{1, []string{"campaign_w1"}},
		{2, []string{"campaign_w1", "campaign_w2"}},
		{3, []string{"campaign_w1", "campaign_w2"}},
		{8, []string{"campaign_w1", "campaign_w2", "campaign_w4", "campaign_w8"}},
		{64, []string{"campaign_w1", "campaign_w2", "campaign_w4", "campaign_w8"}},
	} {
		g := perf.NewRegistry()
		registerCampaigns(g, tc.cpus)
		var got []string
		for _, s := range g.Scenarios() {
			got = append(got, s.Name)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%d CPUs: registered %v, want %v", tc.cpus, got, tc.want)
		}
	}
}

// runBodyOnce builds a fresh repetition of the named scenario and runs
// its body once, returning the observations.
func runBodyOnce(t *testing.T, name string) *perf.Rep {
	t.Helper()
	s, ok := Default().Lookup(name)
	if !ok {
		t.Fatalf("no scenario %q", name)
	}
	body, err := s.Setup()
	if err != nil {
		t.Fatalf("%s setup: %v", name, err)
	}
	rep := perf.NewRep()
	if err := body(rep); err != nil {
		t.Fatalf("%s body: %v", name, err)
	}
	return rep
}

// TestSuiteDeterministic: the bench workloads are fully seeded, so two
// independent executions (fresh registries, fresh Setup) observe
// identical domain values. This is the contract that makes
// `make bench-smoke` and BENCH captures reproducible.
func TestSuiteDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full closed-loop runs are slow in -short mode")
	}
	a := runBodyOnce(t, "fig2a_dos")
	b := runBodyOnce(t, "fig2a_dos")
	if a.Value(ObsDetectedAt) != float64(paperDetectionStep) {
		t.Errorf("detected_at = %v, want %d", a.Value(ObsDetectedAt), paperDetectionStep)
	}
	if a.Value(ObsDetectedAt) != b.Value(ObsDetectedAt) {
		t.Errorf("detection drifted across executions: %v vs %v",
			a.Value(ObsDetectedAt), b.Value(ObsDetectedAt))
	}

	c := runBodyOnce(t, "campaign_w1")
	if c.Value(ObsDetected) != CampaignJobs {
		t.Errorf("campaign detected = %v, want %d", c.Value(ObsDetected), CampaignJobs)
	}
	if c.Value(ObsRunsPerSec) <= 0 {
		t.Errorf("runs_per_sec = %v, want > 0", c.Value(ObsRunsPerSec))
	}
}

// TestKernelsThroughRunner: the fast kernels survive a real (tiny)
// runner pass and produce fully-populated sample arrays — the same code
// path `safesense-perf run` takes, minus the repetition count.
func TestKernelsThroughRunner(t *testing.T) {
	g := Default()
	scenarios, err := g.Match("^kernel_(fft_1024|cra_check|recovery_estimator)$")
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 3 {
		t.Fatalf("matched %d scenarios", len(scenarios))
	}
	r := perf.NewRunner(perf.RunnerConfig{Reps: 2, Warmup: 1, MinRepMillis: 1, MaxInner: 64})
	run, err := r.RunSuite(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.ValidateSchema(); err != nil {
		t.Error(err)
	}
	for _, sr := range run.Scenarios {
		if len(sr.NsPerOp) != 2 || len(sr.AllocsPerOp) != 2 || len(sr.BytesPerOp) != 2 {
			t.Errorf("%s: sample counts %d/%d/%d, want 2 each",
				sr.Name, len(sr.NsPerOp), len(sr.AllocsPerOp), len(sr.BytesPerOp))
		}
		for _, ns := range sr.NsPerOp {
			if ns <= 0 {
				t.Errorf("%s: ns/op = %v, want > 0", sr.Name, ns)
			}
		}
		if len(sr.Extra[perf.ExtraHeapBytes]) != 2 {
			t.Errorf("%s: runtime extras missing", sr.Name)
		}
	}
}
