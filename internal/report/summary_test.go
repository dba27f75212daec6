package report

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"safesense/internal/sim"
)

func TestSummarizeRoundTripsJSON(t *testing.T) {
	res, err := sim.Run(sim.Fig2aDoS())
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(res, false)
	if sum.Traces != nil {
		t.Fatal("traces must be opt-in")
	}
	if sum.DetectedAt != 182 || sum.Attack != "dos" || !sum.Defended {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.FalsePositives != 0 || sum.FalseNegatives != 0 {
		t.Fatalf("confusion = FP %d FN %d", sum.FalsePositives, sum.FalseNegatives)
	}
	b, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	var back RunSummary
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, sum) {
		t.Fatal("summary did not survive a JSON round trip")
	}
	if len(sum.Events) == 0 {
		t.Fatal("flight-recorder events must ride along in the summary")
	}
}

func TestSummarizeWithTraces(t *testing.T) {
	res, err := sim.Run(sim.Fig2bDelay())
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(res, true)
	if sum.Traces == nil {
		t.Fatal("traces requested but absent")
	}
	if len(sum.Traces.Distance.Series) == 0 || len(sum.Traces.Speeds.Series) != 2 {
		t.Fatalf("trace dump shape: %d distance, %d speed series",
			len(sum.Traces.Distance.Series), len(sum.Traces.Speeds.Series))
	}
	if _, err := json.Marshal(sum); err != nil {
		t.Fatalf("traces must marshal cleanly (NaN-free): %v", err)
	}
}

// TestSummarizeRLSTimeOnlyWhenTimed pins rls_time_ns to timed runs: a
// Summary run omits the key, a timed run reports it, 0 included (an
// undefended run never calls the predictor).
func TestSummarizeRLSTimeOnlyWhenTimed(t *testing.T) {
	undefended := sim.Fig2aDoS()
	undefended.Defended = false
	for _, tc := range []struct {
		name   string
		detail sim.Detail
		s      sim.Scenario
		want   string // "" = key absent, "0", or "+" for positive
	}{
		{"summary", sim.Summary, sim.Fig2aDoS(), ""},
		{"timed", sim.Timed, sim.Fig2aDoS(), "+"},
		{"traced", sim.Traced, sim.Fig2aDoS(), "+"},
		{"timed undefended", sim.Timed, undefended, "0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := sim.RunContext(sim.WithDetail(context.Background(), tc.detail), tc.s)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(Summarize(res, false))
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(b, &keys); err != nil {
				t.Fatal(err)
			}
			v, ok := keys["rls_time_ns"]
			switch {
			case tc.want == "" && ok:
				t.Errorf("rls_time_ns = %s, want the key absent", v)
			case tc.want == "0" && string(v) != "0":
				t.Errorf("rls_time_ns = %q, want 0", v)
			case tc.want == "+" && (!ok || string(v) == "0"):
				t.Errorf("rls_time_ns = %q, want > 0", v)
			}
		})
	}
}
