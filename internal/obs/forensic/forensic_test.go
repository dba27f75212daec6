package forensic

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"safesense/internal/sim"
)

// testCapture builds a valid capture; seed also differentiates the
// hashed fields so distinct seeds yield distinct content hashes.
func testCapture(seed int64, kinds ...string) Capture {
	if len(kinds) == 0 {
		kinds = []string{sim.AnomalyCollision}
	}
	return Capture{
		Schema:   CaptureSchema,
		SpecHash: "spec-abc",
		Campaign: "c000001",
		JobIndex: int(seed),
		Seed:     seed,
		Label:    "dos/const/paper",
		Attack:   "dos",
		Point:    json.RawMessage(fmt.Sprintf(`{"attack":"dos","steps":301,"seed":%d}`, seed)),
		Kinds:    kinds,
		Flight: []sim.FlightEvent{
			{K: 10, Kind: sim.EventChallenge, Value: 0.5},
			{K: 150, Kind: sim.EventCollision, Value: -0.2},
		},
		Anomalies: []sim.AnomalyDump{
			{K: 150, Kind: kinds[0], States: []sim.StepState{{K: 149, GapM: 0.1}, {K: 150, GapM: -0.2}}},
		},
		Phases: []sim.PhaseTiming{{Phase: "controller", Seconds: 0.001, Calls: 301}},
	}
}

func TestHashExcludesMetadata(t *testing.T) {
	a := testCapture(7)
	ha, err := a.Hash()
	if err != nil {
		t.Fatalf("Hash: %v", err)
	}

	// Campaign label, kinds, and phase timings are metadata: two nodes
	// observing the same anomaly under different campaign IDs (or one
	// tagging an extra latency_outlier kind) must dedup to one hash.
	b := testCapture(7)
	b.Campaign = "c999999"
	b.Kinds = append(b.Kinds, KindLatencyOutlier)
	b.Phases = nil
	if hb, _ := b.Hash(); hb != ha {
		t.Fatalf("metadata perturbed the content hash: %s vs %s", hb, ha)
	}

	// The evidence itself is identity: any change is a new capture.
	mutations := []struct {
		name   string
		mutate func(*Capture)
	}{
		{"seed", func(c *Capture) { c.Seed++ }},
		{"jobindex", func(c *Capture) { c.JobIndex++ }},
		{"spechash", func(c *Capture) { c.SpecHash = "other" }},
		{"point", func(c *Capture) { c.Point = json.RawMessage(`{"attack":"delay"}`) }},
		{"flight", func(c *Capture) { c.Flight[0].Value += 1 }},
		{"anomaly", func(c *Capture) { c.Anomalies[0].K++ }},
	}
	for _, m := range mutations {
		c := testCapture(7)
		c.Flight = append([]sim.FlightEvent(nil), c.Flight...)
		c.Anomalies = append([]sim.AnomalyDump(nil), c.Anomalies...)
		m.mutate(&c)
		if hc, _ := c.Hash(); hc == ha {
			t.Errorf("mutating %s did not change the hash", m.name)
		}
	}
}

func TestValidateCaptureBounds(t *testing.T) {
	if err := ValidateCapture(testCapture(1)); err != nil {
		t.Fatalf("valid capture rejected: %v", err)
	}
	cases := map[string]func(*Capture){
		"schema":            func(c *Capture) { c.Schema = 2 },
		"negative-job":      func(c *Capture) { c.JobIndex = -1 },
		"negative-numerics": func(c *Capture) { c.Numerics = -1 },
		"no-kinds":          func(c *Capture) { c.Kinds = nil },
		"empty-kind":        func(c *Capture) { c.Kinds = []string{""} },
		"long-kind":         func(c *Capture) { c.Kinds = []string{strings.Repeat("k", maxKindLen+1)} },
		"many-kinds": func(c *Capture) {
			c.Kinds = make([]string, MaxCaptureKinds+1)
			for i := range c.Kinds {
				c.Kinds[i] = "x"
			}
		},
		"no-point":      func(c *Capture) { c.Point = nil },
		"bad-point":     func(c *Capture) { c.Point = json.RawMessage(`{`) },
		"big-point":     func(c *Capture) { c.Point = json.RawMessage(`"` + strings.Repeat("p", MaxCapturePoint) + `"`) },
		"long-label":    func(c *Capture) { c.Label = strings.Repeat("l", maxLabelLen+1) },
		"long-campaign": func(c *Capture) { c.Campaign = strings.Repeat("c", maxCampaignLen+1) },
		"long-attack":   func(c *Capture) { c.Attack = strings.Repeat("a", maxAttackLen+1) },
		"many-flight":   func(c *Capture) { c.Flight = make([]sim.FlightEvent, MaxCaptureFlight+1) },
		"many-anoms":    func(c *Capture) { c.Anomalies = make([]sim.AnomalyDump, MaxCaptureAnomalies+1) },
		"many-states": func(c *Capture) {
			c.Anomalies = []sim.AnomalyDump{{States: make([]sim.StepState, MaxCaptureStates+1)}}
		},
		"many-phases": func(c *Capture) { c.Phases = make([]sim.PhaseTiming, MaxCapturePhases+1) },
	}
	for name, mutate := range cases {
		c := testCapture(1)
		mutate(&c)
		if err := ValidateCapture(c); err == nil {
			t.Errorf("%s: invalid capture accepted", name)
		}
	}
}

func TestDecodeCaptureStrict(t *testing.T) {
	c := testCapture(3)
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := decodeWire(data)
	if err != nil {
		t.Fatalf("decodeWire: %v", err)
	}
	h1, _ := c.Hash()
	h2, err := got.Hash()
	if err != nil || h1 != h2 {
		t.Fatalf("decoded capture hash %s (err %v), want %s", h2, err, h1)
	}

	if _, err := decodeWire([]byte(`{"schema":1,"unknown_field":true}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := decodeWire(append(data, []byte(`{}`)...)); err == nil {
		t.Error("trailing data accepted")
	}
	if _, err := decodeWire([]byte(`{"schema":1}`)); err == nil {
		t.Error("capture without kinds/point accepted")
	}
}

func TestKindPriorityOrdering(t *testing.T) {
	order := []string{KindManual, KindLatencyOutlier, sim.AnomalyFalsePositive,
		sim.AnomalyFalseNegative, sim.AnomalyCollision}
	for i := 1; i < len(order); i++ {
		if KindPriority(order[i]) < KindPriority(order[i-1]) {
			t.Errorf("priority(%s)=%d < priority(%s)=%d",
				order[i], KindPriority(order[i]), order[i-1], KindPriority(order[i-1]))
		}
	}
	if KindPriority(sim.AnomalyCollision) <= KindPriority(sim.AnomalyFalseNegative) {
		t.Error("collision must outrank false_negative")
	}
	if KindPriority("unknown") != 0 {
		t.Errorf("unknown kind priority = %d, want 0", KindPriority("unknown"))
	}
}

func TestDiffTimelines(t *testing.T) {
	base := []sim.FlightEvent{
		{K: 1, Kind: sim.EventChallenge, Value: 0.5},
		{K: 5, Kind: sim.EventCRAFlagged, Value: 1.5},
		{K: 9, Kind: sim.EventRLSTakeover},
	}
	if diffs := DiffTimelines(base, base); len(diffs) != 0 {
		t.Fatalf("identical timelines diff: %+v", diffs)
	}

	changed := append([]sim.FlightEvent(nil), base...)
	changed[1].Value = 2.5
	diffs := DiffTimelines(base, changed)
	if len(diffs) != 1 || diffs[0].Index != 1 {
		t.Fatalf("value change diffs = %+v, want one at index 1", diffs)
	}
	if diffs[0].Stored == nil || diffs[0].Fresh == nil {
		t.Fatal("value change diff should carry both sides")
	}

	// A missing tail shows up as one-sided diffs.
	diffs = DiffTimelines(base, base[:2])
	if len(diffs) != 1 || diffs[0].Fresh != nil || diffs[0].Stored == nil {
		t.Fatalf("truncated fresh timeline diffs = %+v", diffs)
	}
	diffs = DiffTimelines(base[:2], base)
	if len(diffs) != 1 || diffs[0].Stored != nil || diffs[0].Fresh == nil {
		t.Fatalf("extended fresh timeline diffs = %+v", diffs)
	}

	// The diff list is bounded no matter how badly a replay diverges.
	long := make([]sim.FlightEvent, MaxTimelineDiffs*2)
	for i := range long {
		long[i] = sim.FlightEvent{K: i, Kind: sim.EventChallenge, Value: float64(i)}
	}
	if diffs := DiffTimelines(long, nil); len(diffs) != MaxTimelineDiffs {
		t.Fatalf("diff cap = %d, want %d", len(diffs), MaxTimelineDiffs)
	}
}
