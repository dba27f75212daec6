package sim

import "testing"

// Zero-allocation guards for the //safesense:hotpath flight-recorder
// functions: the hotpathalloc analyzer forbids the static allocation
// patterns; these tests enforce the same contract dynamically. The
// common no-anomaly timestep must not allocate at all (emit is allowed
// to stay at zero only while inside its preallocated event buffer, and
// endStep only on anomaly-free steps — both are the steady state).

// newRecorder returns a recorder reset as a run starts it, with no sink.
func newRecorder() *flightRecorder {
	fr := new(flightRecorder)
	fr.reset(nil)
	return fr
}

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(200, f); avg != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, avg)
	}
}

func TestFlightRecorderEmitZeroAlloc(t *testing.T) {
	fr := newRecorder()
	assertZeroAllocs(t, "emit", func() {
		fr.events = fr.events[:0] // stay inside the preallocated buffer
		fr.emit(EventChallenge, 1e-13, "")
	})
}

// countingSink counts deliveries without retaining the event — the
// shape of a well-behaved live tap.
type countingSink struct{ n int }

func (s *countingSink) FlightEvent(FlightEvent) { s.n++ }

func TestFlightRecorderEmitWithSinkZeroAlloc(t *testing.T) {
	fr := newRecorder()
	sink := &countingSink{}
	fr.sink = sink
	assertZeroAllocs(t, "emit+sink", func() {
		fr.events = fr.events[:0]
		fr.emit(EventChallenge, 1e-13, "")
	})
	if sink.n == 0 {
		t.Fatal("sink saw no events")
	}
}

func TestFlightRecorderRecordZeroAlloc(t *testing.T) {
	fr := newRecorder()
	st := StepState{K: 1, GapM: 30, UsedM: 30}
	assertZeroAllocs(t, "record", func() { fr.record(st) })
}

func TestFlightRecorderFlagAnomalyZeroAlloc(t *testing.T) {
	fr := newRecorder()
	assertZeroAllocs(t, "flagAnomaly", func() {
		fr.npending = 0 // re-arm the fixed pending buffer
		fr.flagAnomaly(AnomalyCollision, "gap 0")
	})
}

func TestFlightRecorderEndStepZeroAlloc(t *testing.T) {
	fr := newRecorder()
	st := StepState{K: 2, GapM: 28}
	// The steady state: no pending anomalies, so endStep is one ring
	// store.
	assertZeroAllocs(t, "endStep", func() { fr.endStep(st) })
}

// TestRunAllocationCeiling bounds a whole closed-form figure run at
// Traced detail: the per-step path (radar, CRA, estimator, controller,
// series appends) is allocation-free and the estimator snapshot is a
// by-value copy into one slot, so what remains is the fresh run state
// RunContext builds, the series and the flight events. The ceiling is the
// measured 48 plus a margin of 5.
func TestRunAllocationCeiling(t *testing.T) {
	const ceiling = 53
	s := Fig2aDoS()
	avg := testing.AllocsPerRun(20, func() {
		if _, err := Run(s); err != nil {
			t.Fatal(err)
		}
	})
	if avg > ceiling {
		t.Fatalf("Run(Fig2aDoS): %v allocs/run, want <= %d", avg, ceiling)
	}
}

// TestSignalRunAllocationCeiling is TestRunAllocationCeiling for the
// signal-level pipeline: sweep synthesis, jamming and FFT beat extraction
// run in front-end-owned buffers, so a run allocates no more than the
// closed-form one plus the front end's setup. The ceiling is the measured
// 53 plus a margin of 5.
func TestSignalRunAllocationCeiling(t *testing.T) {
	const ceiling = 58
	s := Fig2aDoS()
	s.SignalLevel = true
	avg := testing.AllocsPerRun(5, func() {
		if _, err := Run(s); err != nil {
			t.Fatal(err)
		}
	})
	if avg > ceiling {
		t.Fatalf("Run(signal-level Fig2aDoS): %v allocs/run, want <= %d", avg, ceiling)
	}
}
