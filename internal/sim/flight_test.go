package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// marshalJSONL renders a flight-event timeline as JSON Lines, the same
// format safesim -events-out writes.
func marshalJSONL(t *testing.T, events []FlightEvent) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestFlightRecorderSpoofingGolden pins the full event timeline of the
// paper's Figure 2b spoofing scenario (offset +6 m at k = 180) as a
// golden JSONL file: the detection at the k = 182 challenge must produce
// a cra_flagged then rls_takeover event pair, and the run must close the
// timeline with rls_release.
func TestFlightRecorderSpoofingGolden(t *testing.T) {
	res, err := Run(Fig2bDelay())
	if err != nil {
		t.Fatal(err)
	}
	got := marshalJSONL(t, res.Flight)

	golden := filepath.Join("testdata", "flight_fig2b_delay.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("flight timeline drifted from golden %s (run with -update to regenerate)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}

	// Structural assertions, independent of the golden bytes.
	assertTimeline(t, res.Flight)
}

// assertTimeline checks the acceptance-criteria ordering: k never
// decreases, and the spoofing run contains challenge → cra_flagged →
// rls_takeover → rls_release with the flag/takeover pair at the same
// challenge instant.
func assertTimeline(t *testing.T, events []FlightEvent) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("empty flight timeline")
	}
	lastK := -1
	first := map[string]int{}
	var order []string
	for i, ev := range events {
		if ev.K < lastK {
			t.Errorf("event %d (%s) at k=%d after k=%d: timeline must be monotonic", i, ev.Kind, ev.K, lastK)
		}
		lastK = ev.K
		if _, seen := first[ev.Kind]; !seen {
			first[ev.Kind] = i
			order = append(order, ev.Kind)
		}
	}
	for _, kind := range []string{EventChallenge, EventCRAFlagged, EventRLSTakeover, EventRLSRelease} {
		if _, ok := first[kind]; !ok {
			t.Errorf("timeline missing %q event (kinds seen: %v)", kind, order)
		}
	}
	if t.Failed() {
		return
	}
	if !(first[EventChallenge] < first[EventCRAFlagged] && first[EventCRAFlagged] < first[EventRLSTakeover] &&
		first[EventRLSTakeover] < first[EventRLSRelease]) {
		t.Errorf("event kinds out of order: %v", order)
	}
	flagged := events[first[EventCRAFlagged]]
	takeover := events[first[EventRLSTakeover]]
	if flagged.K != 182 {
		t.Errorf("cra_flagged at k=%d, want 182 (challenge pinned after the k=180 onset)", flagged.K)
	}
	if takeover.K != flagged.K {
		t.Errorf("rls_takeover at k=%d, want the detection step %d", takeover.K, flagged.K)
	}
}

// TestFlightTimelineDoS covers the other attack family end to end.
func TestFlightTimelineDoS(t *testing.T) {
	res, err := Run(Fig2aDoS())
	if err != nil {
		t.Fatal(err)
	}
	assertTimeline(t, res.Flight)
	if len(res.Anomalies) != 0 {
		t.Errorf("defended DoS run produced %d anomalies, want 0: %+v", len(res.Anomalies), res.Anomalies)
	}
}

// TestFlightRecorderBaselineQuiet: a clean defended run must contain
// challenge events only — no detector or estimator transitions.
func TestFlightRecorderBaselineQuiet(t *testing.T) {
	res, err := Run(Baseline(Fig2aDoS()))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range res.Flight {
		if ev.Kind != EventChallenge {
			t.Errorf("baseline run emitted %q at k=%d, want challenge events only", ev.Kind, ev.K)
		}
	}
	if len(res.Anomalies) != 0 {
		t.Errorf("baseline run produced anomalies: %+v", res.Anomalies)
	}
}

// TestFlightRecorderFastAdversary: the CRA-evading spoofer must leave
// false-negative anomaly dumps (quiet challenges under active attack)
// with the state ring attached.
func TestFlightRecorderFastAdversary(t *testing.T) {
	s := Fig2bDelay()
	s.Attack.Kind = FastAdversaryAttack
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	var fn int
	for _, a := range res.Anomalies {
		if a.Kind == AnomalyFalseNegative {
			fn++
			if len(a.States) == 0 {
				t.Error("false-negative dump carries no state ring")
			}
		}
	}
	if fn == 0 {
		t.Error("fast adversary produced no false-negative anomaly dumps")
	}
	if len(res.Anomalies) > maxAnomalyDumps {
		t.Errorf("%d anomaly dumps exceed the %d cap", len(res.Anomalies), maxAnomalyDumps)
	}
}

// TestStateRingEvictionOrdering pins the recorder's ring semantics: past
// capacity the dump holds exactly the last stateRingCap steps, oldest
// first, ending at the anomaly step.
func TestStateRingEvictionOrdering(t *testing.T) {
	fr := newRecorder()
	const steps = stateRingCap*2 + 5
	for k := 0; k < steps; k++ {
		fr.k = k
		if k == steps-1 {
			fr.flagAnomaly(AnomalyCollision, "")
		}
		fr.endStep(StepState{K: k, GapM: float64(k)})
	}
	if len(fr.anomalies) != 1 {
		t.Fatalf("got %d dumps, want 1", len(fr.anomalies))
	}
	states := fr.anomalies[0].States
	if len(states) != stateRingCap {
		t.Fatalf("dump has %d states, want %d", len(states), stateRingCap)
	}
	for i, st := range states {
		want := steps - stateRingCap + i
		if st.K != want {
			t.Errorf("states[%d].K = %d, want %d (oldest-first, last-N)", i, st.K, want)
		}
	}
	if states[len(states)-1].K != steps-1 {
		t.Errorf("dump must end at the anomaly step %d, got %d", steps-1, states[len(states)-1].K)
	}
}

// TestFlightShortRing: dumps before the ring fills carry exactly the
// steps seen so far.
func TestFlightShortRing(t *testing.T) {
	fr := newRecorder()
	for k := 0; k < 5; k++ {
		fr.k = k
		if k == 4 {
			fr.flagAnomaly(AnomalyFalsePositive, "")
		}
		fr.endStep(StepState{K: k})
	}
	if len(fr.anomalies) != 1 {
		t.Fatalf("got %d dumps, want 1", len(fr.anomalies))
	}
	states := fr.anomalies[0].States
	if len(states) != 5 {
		t.Fatalf("dump has %d states, want 5", len(states))
	}
	for i, st := range states {
		if st.K != i {
			t.Errorf("states[%d].K = %d, want %d", i, st.K, i)
		}
	}
}
