package sim

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"safesense/internal/attack"
	"safesense/internal/estimate"
)

// reuseSequence is a run order that changes, from one run to the next,
// every scenario input a Runner rebuilds its parts for (radar, attack,
// pipeline, samples, predictor, set speed) and every input it sets on
// held parts (seed, schedule), and also
// repeats inputs, so the parts are both rebuilt and reset by value.
func reuseSequence(t *testing.T) []Scenario {
	t.Helper()
	with := func(s Scenario, f func(*Scenario)) Scenario {
		f(&s)
		return s
	}
	fast := Fig2aDoS()
	fast.Name = "fast-adversary"
	fast.Attack = AttackSpec{
		Kind: FastAdversaryAttack, Window: attack.Window{Start: 150, End: 300}, OffsetM: 6,
	}
	signal := func(s *Scenario) { s.SignalLevel = true }
	return []Scenario{
		Fig2aDoS(),
		with(Fig2aDoS(), func(s *Scenario) { s.Seed = 7; s.Attack.Window.Start = 175 }),
		Fig2bDelay(),
		with(Fig2bDelay(), signal),
		with(Fig2aDoS(), signal),
		with(Fig2aDoS(), func(s *Scenario) { signal(s); s.SignalSamples = 64; s.Seed = 3 }),
		with(sparseLFSR(t), func(s *Scenario) { signal(s); s.SignalSamples = 64 }),
		fast,
		Fig3aDoS(),
		with(Fig3aDoS(), func(s *Scenario) { s.Attack.Jammer.PeakPowerW = 0.05 }),
		with(Fig3bDelay(), func(s *Scenario) { s.Radar.TargetRCS *= 2 }),
		with(Fig2bDelay(), func(s *Scenario) { s.Predictor = estimate.PredictorConfig{Lambda: 0.95, Delta: 10} }),
		with(Fig2bDelay(), func(s *Scenario) { s.SetSpeed -= 1 }),
		Undefended(Fig2aDoS()),
		Baseline(Fig3bDelay()),
		sparseLFSR(t),
		Fig2aDoS(),
	}
}

// TestRunnerReuseMatchesFresh: runs back to back on one Runner score,
// at Summary and at Traced detail, exactly what a fresh run of the same
// scenario scores, bit for bit, and record the same series.
func TestRunnerReuseMatchesFresh(t *testing.T) {
	seq := reuseSequence(t)
	for _, detail := range []Detail{Summary, Traced} {
		ctx := WithDetail(context.Background(), detail)
		var r Runner
		for i, s := range seq {
			got, err := r.Run(ctx, s)
			if err != nil {
				t.Fatalf("run %d (%s): %v", i, s.Name, err)
			}
			want, err := RunContext(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			checkSummaryMatches(t, got, want)
			if detail < Traced {
				continue
			}
			g, err := canonicalize(got)
			if err != nil {
				t.Fatal(err)
			}
			w, err := canonicalize(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("run %d (%s): reused Traced run diverged from a fresh run", i, s.Name)
			}
		}
	}
}

// TestRunnerReuseAllocs holds a campaign job's run on a reused Runner to
// one allocation, the CRA detector's detection list (the detector itself
// stays on the stack). Everything else the loop needs is held by the
// Runner.
func TestRunnerReuseAllocs(t *testing.T) {
	const maxAllocs = 1
	ctx := WithDetail(context.Background(), Summary)
	s := Fig2aDoS()
	var r Runner
	if avg := testing.AllocsPerRun(20, func() {
		if _, err := r.Run(ctx, s); err != nil {
			t.Fatal(err)
		}
	}); avg > maxAllocs {
		t.Fatalf("reused Summary Run(Fig2aDoS): %v allocs/run, want <= %d", avg, maxAllocs)
	}
}

// recordingSink keeps every event it is handed.
type recordingSink struct{ events []FlightEvent }

func (s *recordingSink) FlightEvent(ev FlightEvent) { s.events = append(s.events, ev) }

// TestNonFiniteEstimateEndsRun poisons the estimator a reused Runner
// starts each run from. The run must end at the first free-run estimate
// with ErrNonFiniteEstimate and an estimate_fault flight event, not hand
// NaN to the controller; a rebuilt estimator heals the Runner.
func TestNonFiniteEstimateEndsRun(t *testing.T) {
	ctx := WithDetail(context.Background(), Summary)
	s := Fig2aDoS()
	var r Runner
	if _, err := r.Run(ctx, s); err != nil {
		t.Fatal(err)
	}
	// Overflowing measurements drive the level weight to -Inf, then to
	// NaN, which no finite measurement washes out again.
	for _, y := range []float64{math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64} {
		if err := r.predInit.Observe(y, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	sink := &recordingSink{}
	_, err := r.Run(WithFlightSink(ctx, sink), s)
	if !errors.Is(err, ErrNonFiniteEstimate) {
		t.Fatalf("poisoned run: err = %v, want ErrNonFiniteEstimate", err)
	}
	last := sink.events[len(sink.events)-1]
	if last.Kind != EventEstimateFault || last.K != 182 {
		t.Fatalf("last flight event = %+v, want %s at the k = 182 takeover", last, EventEstimateFault)
	}

	r.key = partsKey{} // rebuild
	got, err := r.Run(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunContext(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	checkSummaryMatches(t, got, want)
}
