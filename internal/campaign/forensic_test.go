package campaign

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"safesense/internal/obs/forensic"
	"safesense/internal/sim"
)

// undefendedDoSSpec is a sweep that reliably produces a collision:
// with the CRA+RLS pipeline off, the DoS hold-last-measurement
// behavior drives the follower into the leader shortly after onset
// (verified: onset 150, seed base 7 collides around k=157).
func undefendedDoSSpec() Spec {
	off := false
	return Spec{
		Name:     "forensic-test",
		Steps:    200,
		BaseSeed: 7,
		Defended: &off,
		Attacks:  []string{AttackDoS},
		Onsets:   []int{150},
	}
}

func TestSpecHashCanonical(t *testing.T) {
	a := Spec{Name: "s"}
	if a.Hash() != a.Hash() {
		t.Fatal("Spec.Hash is not stable")
	}
	// Hash is over the defaults-applied spec: spelling out a default
	// must not move the address.
	b := Spec{Name: "s", Steps: 301, BaseSeed: 1, Replicates: 1, Attacks: []string{AttackDoS}}
	if a.Hash() != b.Hash() {
		t.Error("explicit defaults changed the spec hash")
	}
	c := Spec{Name: "s", Onsets: []int{150}}
	if a.Hash() == c.Hash() {
		t.Error("different grids hash identically")
	}
}

func TestRunCapturesAnomalies(t *testing.T) {
	var mu sync.Mutex
	var caps []forensic.Capture
	spec := undefendedDoSSpec()
	sum, err := Run(context.Background(), spec, Options{
		Workers: 2,
		Forensic: &ForensicOptions{
			Sink: func(c forensic.Capture) {
				mu.Lock()
				caps = append(caps, c)
				mu.Unlock()
			},
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum.Aggregate.Collisions == 0 {
		t.Fatal("undefended DoS sweep produced no collisions; the capture test needs one")
	}
	if len(caps) == 0 {
		t.Fatal("no forensic captures from a collision-bearing sweep")
	}
	c := caps[0]
	if c.SpecHash != spec.Hash() {
		t.Errorf("capture spec hash %q, want %q (Run must default it)", c.SpecHash, spec.Hash())
	}
	if c.Campaign != spec.Name {
		t.Errorf("capture campaign %q, want spec name %q", c.Campaign, spec.Name)
	}
	if forensic.PrimaryKind(c) != sim.AnomalyCollision {
		t.Errorf("capture primary kind %q, want collision", forensic.PrimaryKind(c))
	}
	if err := forensic.ValidateCapture(c); err != nil {
		t.Errorf("engine emitted an invalid capture: %v", err)
	}
}

// TestRunJobsCapturesMatchRun runs the full grid of a collision-bearing
// spec through both entry points: RunJobs, given the campaign and spec
// hash Run defaults from the spec, must give the same outcomes, capture
// hashes and campaign labels, and its Stats must count the jobs 1..n.
func TestRunJobsCapturesMatchRun(t *testing.T) {
	spec := undefendedDoSSpec()
	spec.Onsets = []int{120, 150}
	spec.Replicates = 3
	var mu sync.Mutex
	collect := func(dst *[]string) func(forensic.Capture) {
		return func(c forensic.Capture) {
			h, err := c.Hash()
			if err != nil {
				t.Errorf("capture hash: %v", err)
				return
			}
			mu.Lock()
			*dst = append(*dst, h+" "+c.Campaign)
			mu.Unlock()
		}
	}
	var runCaps, jobsCaps []string
	sum, err := Run(context.Background(), spec, Options{
		Workers:  3,
		Forensic: &ForensicOptions{Sink: collect(&runCaps)},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum.Aggregate.Collisions == 0 {
		t.Fatal("spec produced no collisions; the comparison needs captures")
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var done []int
	outcomes, err := RunJobs(context.Background(), jobs, Options{
		Workers:   3,
		Campaign:  spec.Name,
		Forensic:  &ForensicOptions{Sink: collect(&jobsCaps), SpecHash: spec.Hash()},
		OnOutcome: func(_ Outcome, st Stats) { done = append(done, st.Done) },
	})
	if err != nil {
		t.Fatalf("RunJobs: %v", err)
	}
	if got, want := mustJSON(t, outcomes), mustJSON(t, sum.Outcomes); string(got) != string(want) {
		t.Fatalf("RunJobs outcomes diverge from Run\n got: %s\nwant: %s", got, want)
	}
	slices.Sort(runCaps)
	slices.Sort(jobsCaps)
	if len(runCaps) == 0 || !slices.Equal(runCaps, jobsCaps) {
		t.Fatalf("captures (hash campaign) differ\n Run:     %v\n RunJobs: %v", runCaps, jobsCaps)
	}
	for i, d := range done {
		if d != i+1 {
			t.Fatalf("RunJobs Stats.Done sequence %v, want 1..%d", done, len(jobs))
		}
	}
	if len(done) != len(jobs) {
		t.Fatalf("RunJobs delivered %d Stats for %d jobs", len(done), len(jobs))
	}
}

func TestLatencyOutlierWindow(t *testing.T) {
	sink := func(forensic.Capture) {}
	c := newCapturer(Options{Forensic: &ForensicOptions{Sink: sink, LatencyOutlierPct: 90}})
	// Warmup: nothing is an outlier before minLatencySamples.
	for i := 0; i < minLatencySamples; i++ {
		if c.latencyOutlier(time.Hour) {
			t.Fatalf("outlier flagged during warmup (sample %d)", i)
		}
	}
	// After warmup, a duration far past the window's p90 is flagged...
	if !c.latencyOutlier(2 * time.Hour) {
		t.Error("2h job not an outlier over a 1h-flat window")
	}
	// ...and one at the floor of the distribution is not.
	if c.latencyOutlier(time.Millisecond) {
		t.Error("1ms job flagged as outlier over a 1h-flat window")
	}

	// A percentile outside (0, 100) never captures.
	for _, pct := range []float64{0, 100, 150, -1, math.NaN()} {
		off := newCapturer(Options{Forensic: &ForensicOptions{Sink: sink, LatencyOutlierPct: pct}})
		if off.capturesLatency() {
			t.Errorf("latency capture on at percentile %v", pct)
		}
		for i := 0; i < minLatencySamples+1; i++ {
			if off.latencyOutlier(time.Duration(i) * time.Second) {
				t.Fatalf("outlier flagged at percentile %v", pct)
			}
		}
	}
}

// TestCapturePhasesFollowLatencyCapture pins when a campaign capture
// carries the run's phase breakdown: only when the campaign captures
// latency outliers, since its jobs run untimed otherwise. Phases lie
// outside the content hash, so the capture addresses do not move.
func TestCapturePhasesFollowLatencyCapture(t *testing.T) {
	spec := undefendedDoSSpec()
	spec.Onsets = []int{120, 150}
	spec.Replicates = 3
	captureHashes := func(pct float64, wantPhases int) []string {
		var mu sync.Mutex
		var hashes []string
		_, err := Run(context.Background(), spec, Options{
			Workers: 2,
			Forensic: &ForensicOptions{LatencyOutlierPct: pct, Sink: func(c forensic.Capture) {
				if len(c.Phases) != wantPhases {
					t.Errorf("percentile %v: job %d (%v) captured with %d phases, want %d",
						pct, c.JobIndex, c.Kinds, len(c.Phases), wantPhases)
				}
				h, err := c.Hash()
				if err != nil {
					t.Errorf("capture hash: %v", err)
					return
				}
				mu.Lock()
				hashes = append(hashes, h)
				mu.Unlock()
			}},
		})
		if err != nil {
			t.Fatalf("Run at percentile %v: %v", pct, err)
		}
		slices.Sort(hashes)
		return hashes
	}
	untimed := captureHashes(0, 0)
	timed := captureHashes(50, len(sim.PhaseNames()))
	if len(untimed) == 0 || !slices.Equal(untimed, timed) {
		t.Fatalf("capture hashes differ across latency settings\n off: %v\n on:  %v", untimed, timed)
	}
}

// TestReplayDiffStaleAcrossNumerics replays two captures taken under
// numerics version 1, before captures carried a stamp (testdata, written
// by that version's campaign.Run). The signal-level one synthesizes beat
// tones, which version 2 changed, so its collision gap moves: the replay
// is stale, not diverged. The closed-form one synthesizes none and still
// replays identically. Stamped with the current version, the same
// signal-level diff is a divergence.
func TestReplayDiffStaleAcrossNumerics(t *testing.T) {
	load := func(name string) forensic.Capture {
		t.Helper()
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		var c forensic.Capture
		if err := json.Unmarshal(b, &c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := forensic.ValidateCapture(c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.NumericsVersion() != 1 {
			t.Fatalf("%s: unstamped capture reads as numerics %d, want 1", name, c.NumericsVersion())
		}
		return c
	}
	for _, tc := range []struct{ file, want string }{
		{"capture_v1_signal_level.json", forensic.ReplayStale},
		{"capture_v1_closed_form.json", forensic.ReplayIdentical},
	} {
		c := load(tc.file)
		rep, err := ReplayDiff(context.Background(), "", c)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if rep.Result != tc.want || rep.Numerics != 1 {
			t.Errorf("%s: replayed %s (numerics %d), want %s at numerics 1", tc.file, rep.Result, rep.Numerics, tc.want)
		}
	}
	c := load("capture_v1_signal_level.json")
	c.Numerics = sim.NumericsVersion
	rep, err := ReplayDiff(context.Background(), "", c)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result != forensic.ReplayDiverged {
		t.Errorf("current-stamped capture with a moved timeline replayed %s, want %s", rep.Result, forensic.ReplayDiverged)
	}
}

func TestReplayDiffIdenticalAndTampered(t *testing.T) {
	var mu sync.Mutex
	var caps []forensic.Capture
	_, err := Run(context.Background(), undefendedDoSSpec(), Options{
		Workers: 2,
		Forensic: &ForensicOptions{Sink: func(c forensic.Capture) {
			mu.Lock()
			caps = append(caps, c)
			mu.Unlock()
		}},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(caps) == 0 {
		t.Fatal("no captures to replay")
	}
	c := caps[0]
	hash, err := c.Hash()
	if err != nil {
		t.Fatalf("Hash: %v", err)
	}

	rep, err := ReplayDiff(context.Background(), hash, c)
	if err != nil {
		t.Fatalf("ReplayDiff: %v", err)
	}
	if rep.Result != forensic.ReplayIdentical || len(rep.Diffs) != 0 {
		t.Fatalf("fresh capture did not replay identically: %s %+v", rep.Result, rep.Diffs)
	}
	if c.Numerics != sim.NumericsVersion || rep.Numerics != sim.NumericsVersion {
		t.Errorf("capture stamped numerics %d, report %d, want %d", c.Numerics, rep.Numerics, sim.NumericsVersion)
	}
	if rep.Hash != hash || rep.StoredEvents != len(c.Flight) || rep.FreshEvents != len(c.Flight) {
		t.Errorf("replay report fields off: %+v", rep)
	}
	if rep.CollisionAt < 0 {
		t.Error("replaying a collision capture reported no collision")
	}

	// A tampered timeline is a determinism violation the diff must catch.
	tampered := c
	tampered.Flight = append([]sim.FlightEvent(nil), c.Flight...)
	tampered.Flight[0].Value += 0.5
	rep2, err := ReplayDiff(context.Background(), hash, tampered)
	if err != nil {
		t.Fatalf("ReplayDiff(tampered): %v", err)
	}
	if rep2.Result != forensic.ReplayDiverged || len(rep2.Diffs) == 0 {
		t.Errorf("tampered capture replayed as %s, want %s", rep2.Result, forensic.ReplayDiverged)
	}

	// A capture whose point seed disagrees with the capture seed is
	// rejected before any simulation runs.
	bad := c
	bad.Seed = c.Seed + 1
	if _, err := ReplayDiff(context.Background(), hash, bad); err == nil {
		t.Error("seed-mismatched capture replayed without error")
	}
}
