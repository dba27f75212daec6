package sim

import (
	"context"
	"math"
	"testing"
	"time"

	"safesense/internal/cra"
	"safesense/internal/obs/profile"
)

// phaseByName indexes a breakdown for assertions.
func phaseByName(t *testing.T, phases []PhaseTiming, name string) PhaseTiming {
	t.Helper()
	for _, p := range phases {
		if p.Phase == name {
			return p
		}
	}
	t.Fatalf("phase %q missing from %v", name, phases)
	return PhaseTiming{}
}

func TestRunPhaseBreakdownFastPipeline(t *testing.T) {
	res, err := Run(Fig2aDoS())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 6 {
		t.Fatalf("phases = %d, want 6 (%v)", len(res.Phases), res.Phases)
	}
	steps := res.Scenario.Steps

	radar := phaseByName(t, res.Phases, PhaseRadarSynthesis)
	if radar.Calls != steps {
		t.Errorf("radar synthesis calls = %d, want %d", radar.Calls, steps)
	}
	veh := phaseByName(t, res.Phases, PhaseVehicleStep)
	if veh.Calls != steps {
		t.Errorf("vehicle step calls = %d, want %d", veh.Calls, steps)
	}
	cra := phaseByName(t, res.Phases, PhaseCRACheck)
	if cra.Calls != steps {
		t.Errorf("cra check calls = %d, want %d", cra.Calls, steps)
	}
	// The closed-form pipeline has no beat-spectrum estimator.
	if ext := phaseByName(t, res.Phases, PhaseBeatExtraction); ext.Calls != 0 {
		t.Errorf("beat extraction calls = %d, want 0 on the fast pipeline", ext.Calls)
	}
	// A defended DoS run trains and free-runs the RLS predictor, and the
	// phase total is the reported RLSTime.
	rls := phaseByName(t, res.Phases, PhaseRLSEstimation)
	if rls.Calls == 0 {
		t.Error("rls estimation never ran on a defended run")
	}
	if rls.Seconds != res.RLSTime.Seconds() {
		t.Errorf("rls phase %.9fs != RLSTime %.9fs", rls.Seconds, res.RLSTime.Seconds())
	}
	if total := TotalSeconds(res.Phases); total <= 0 {
		t.Errorf("total instrumented time = %g", total)
	}
}

func TestRunPhaseBreakdownSignalPipeline(t *testing.T) {
	s := Fig2aDoS()
	s.SignalLevel = true
	s.Steps = 40
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	ext := phaseByName(t, res.Phases, PhaseBeatExtraction)
	if ext.Calls != s.Steps {
		t.Errorf("beat extraction calls = %d, want %d", ext.Calls, s.Steps)
	}
	radar := phaseByName(t, res.Phases, PhaseRadarSynthesis)
	if radar.Calls != s.Steps {
		t.Errorf("radar synthesis calls = %d, want %d", radar.Calls, s.Steps)
	}
}

func TestRunPhaseBreakdownUndefended(t *testing.T) {
	s := Fig2aDoS()
	s.Defended = false
	s.Steps = 40
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if cra := phaseByName(t, res.Phases, PhaseCRACheck); cra.Calls != 0 {
		t.Errorf("cra calls = %d on an undefended run", cra.Calls)
	}
	if rls := phaseByName(t, res.Phases, PhaseRLSEstimation); rls.Calls != 0 {
		t.Errorf("rls calls = %d on an undefended run", rls.Calls)
	}
}

// clockReads counts the tracker's reads through each clock seam.
type clockReads struct{ clock, since int }

// countingClock swaps the tracker's clock seams for counting ones: since
// advances 1 ns per read, so every phase visit lasts exactly 1 ns and the
// run's tracker wall equals its number of since reads.
func countingClock(t *testing.T) *clockReads {
	t.Helper()
	reads := new(clockReads)
	origClock, origSince := clock, since
	clock = func() time.Time {
		reads.clock++
		return time.Time{}
	}
	since = func(time.Time) time.Duration {
		reads.since++
		return time.Duration(reads.since)
	}
	t.Cleanup(func() { clock, since = origClock, origSince })
	return reads
}

// phaseSamples counts every safesense_sim_phase_seconds observation.
func phaseSamples() uint64 {
	var n uint64
	for _, name := range phaseNames {
		n += metricPhaseSeconds.With(name).Count()
	}
	return n
}

// TestPhaseAccounting pins the tracker's bookkeeping: exact entry counts
// per phase, one clock read per boundary, phases summing to the tracker
// wall, RLSTime equal to the rls_estimation total, and the defended
// closed-form step within its budget of six reads. A Timed run keeps
// that bookkeeping without the series, and matches the Traced run in
// every summary field; a Summary run makes no read at all.
func TestPhaseAccounting(t *testing.T) {
	undefended := Fig2aDoS()
	undefended.Defended = false
	signal := Fig2aDoS()
	signal.SignalLevel = true
	cases := []struct {
		name     string
		s        Scenario
		maxReads int // per step, 0 for no budget
		detail   Detail
	}{
		{"defended", Fig2aDoS(), 6, Traced},
		{"defended timed", Fig2aDoS(), 6, Timed},
		{"undefended", undefended, 6, Traced},
		{"undefended timed", undefended, 6, Timed},
		{"signal", signal, 0, Traced},
		{"untimed", Fig2aDoS(), 0, Summary},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The Traced run of the same scenario, before the clock
			// swap: its event log drives the expected counts.
			ref, err := Run(tc.s)
			if err != nil {
				t.Fatal(err)
			}
			runs, samples := metricRuns.With().Value(), phaseSamples()
			reads := countingClock(t)
			res, err := RunContext(WithDetail(context.Background(), tc.detail), tc.s)
			if err != nil {
				t.Fatal(err)
			}
			if got := metricRuns.With().Value() - runs; got != 1 {
				t.Errorf("safesense_sim_runs_total rose by %v, want 1", got)
			}
			checkSummaryMatches(t, res, ref)
			if tc.detail == Summary {
				checkUntimed(t, res, *reads, phaseSamples()-samples)
				return
			}
			if reads.clock != 1 {
				t.Errorf("%d clock base reads, want 1", reads.clock)
			}
			steps := tc.s.Steps
			// RLS runs on every accepted measurement (Observe) and every
			// estimate delivered under attack (Predict).
			rlsCalls := ref.EstimateSteps
			for _, ev := range ref.Events {
				if ev.State != cra.UnderAttack && !ev.Challenged {
					rlsCalls++
				}
			}
			want := map[string]int{
				PhaseRadarSynthesis: steps,
				PhaseVehicleStep:    steps,
				PhaseRLSEstimation:  rlsCalls,
				// Setup, then once after the measurement (or detector)
				// and once after the vehicle step.
				PhaseOther: 2*steps + 1,
			}
			if tc.s.SignalLevel {
				want[PhaseBeatExtraction] = steps
			}
			if tc.s.Defended {
				want[PhaseCRACheck] = steps
			}
			var sum time.Duration
			for _, p := range res.Phases {
				if p.Calls != want[p.Phase] {
					t.Errorf("%s: %d calls, want %d", p.Phase, p.Calls, want[p.Phase])
				}
				// Each visit spans exactly one tick of the counting clock.
				ns := time.Duration(math.Round(p.Seconds * 1e9))
				if ns != time.Duration(p.Calls) {
					t.Errorf("%s: %v over %d calls, want 1ns each", p.Phase, ns, p.Calls)
				}
				sum += ns
			}
			// The tracker wall is the last read's value: the read count.
			if wall := time.Duration(reads.since); sum != wall {
				t.Errorf("phases sum to %v, tracker wall %v", sum, wall)
			}
			if got := TotalSeconds(res.Phases); math.Abs(got-time.Duration(reads.since).Seconds()) > 1e-15 {
				t.Errorf("TotalSeconds = %g, want %g", got, time.Duration(reads.since).Seconds())
			}
			if rls := phaseByName(t, res.Phases, PhaseRLSEstimation); rls.Seconds != res.RLSTime.Seconds() {
				t.Errorf("RLSTime %v != rls_estimation total %gs", res.RLSTime, rls.Seconds)
			}
			if tc.maxReads > 0 && reads.since > tc.maxReads*steps+2 {
				t.Errorf("%d clock reads over %d steps, budget %d per step", reads.since, steps, tc.maxReads)
			}
		})
	}
}

// checkUntimed asserts a Summary run made no clock read and returned
// and recorded no timing.
func checkUntimed(t *testing.T, res *Result, reads clockReads, samples uint64) {
	t.Helper()
	if reads.clock != 0 || reads.since != 0 {
		t.Errorf("untimed run read the clock: %d base, %d since", reads.clock, reads.since)
	}
	if res.Phases != nil || res.RLSTime != 0 {
		t.Errorf("untimed run returned Phases %v, RLSTime %v", res.Phases, res.RLSTime)
	}
	if samples != 0 {
		t.Errorf("untimed run added %d safesense_sim_phase_seconds samples", samples)
	}
}

// TestPhaseEnterZeroAlloc guards the per-boundary hot path with
// profiling off and with phase labels on.
func TestPhaseEnterZeroAlloc(t *testing.T) {
	check := func(timed bool, name string) {
		tr := startPhases(context.Background(), timed)
		defer tr.stop()
		i := 0
		assertZeroAllocs(t, name, func() {
			tr.enter(i % numPhases)
			i++
		})
	}
	check(true, "enter")
	check(false, "enter untimed")
	profile.Enable()
	defer profile.Disable()
	check(true, "enter with phase labels")
	check(false, "enter untimed with phase labels")
}
