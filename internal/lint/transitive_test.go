package lint_test

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"safesense/internal/lint"
)

// transitiveFixtureRoot is the self-contained module under testdata
// whose violations are all two calls away from the functions owning
// the invariants — the acceptance fixture for the interprocedural
// engine.
func transitiveFixtureRoot(t *testing.T) string {
	t.Helper()
	return filepath.Join(moduleRoot(t), "internal", "lint", "testdata", "mod", "transitive")
}

// TestTransitiveChains drives the full pipeline over the fixture module
// and pins the two expected findings: a wall-clock read reached from
// sim.Step and an fmt allocation reached from //safesense:hotpath
// sim.Record, each reported with its complete call chain.
func TestTransitiveChains(t *testing.T) {
	report, err := lint.RunOpts(transitiveFixtureRoot(t), nil, lint.All(), lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Diagnostics) != 2 {
		for _, d := range report.Diagnostics {
			t.Logf("got: %s", d)
		}
		t.Fatalf("expected exactly 2 diagnostics, got %d", len(report.Diagnostics))
	}

	byAnalyzer := make(map[string]lint.Diagnostic)
	for _, d := range report.Diagnostics {
		byAnalyzer[d.Analyzer] = d
	}

	det, ok := byAnalyzer["determinism"]
	if !ok {
		t.Fatal("missing determinism diagnostic")
	}
	wantChain := []string{"sim.Step", "dsp.Window", "dsp.scale", "time.Now wall-clock read"}
	assertChain(t, det, wantChain)
	if !strings.HasSuffix(det.File, filepath.Join("internal", "sim", "step.go")) {
		t.Errorf("determinism diagnostic should anchor in sim (the in-scope root), got %s", det.File)
	}
	if want := "sim.Step → dsp.Window → dsp.scale → time.Now wall-clock read: transitively reads the wall clock"; !strings.HasPrefix(det.Message, want) {
		t.Errorf("determinism message = %q, want prefix %q", det.Message, want)
	}

	hot, ok := byAnalyzer["hotpathalloc"]
	if !ok {
		t.Fatal("missing hotpathalloc diagnostic")
	}
	assertChain(t, hot, []string{"sim.Record", "dsp.Format", "dsp.render", "fmt.Sprintf call"})
	if !strings.Contains(hot.Message, "//safesense:hotpath path") {
		t.Errorf("hotpathalloc message should name the hot-path contract, got %q", hot.Message)
	}
}

// assertChain pins a diagnostic's structured chain and checks the same
// sequence is rendered into the message with the arrow separator.
func assertChain(t *testing.T, d lint.Diagnostic, want []string) {
	t.Helper()
	if len(d.Chain) != len(want) {
		t.Fatalf("[%s] chain = %v, want %v", d.Analyzer, d.Chain, want)
	}
	for i := range want {
		if d.Chain[i] != want[i] {
			t.Fatalf("[%s] chain = %v, want %v", d.Analyzer, d.Chain, want)
		}
	}
	if rendered := lint.RenderChain(want); !strings.Contains(d.Message, rendered) {
		t.Errorf("[%s] message %q does not render chain %q", d.Analyzer, d.Message, rendered)
	}
}

// TestTransitiveJSONShape checks the machine interface: the chain rides
// a structured "chain" array alongside the usual fields.
func TestTransitiveJSONShape(t *testing.T) {
	report, err := lint.RunOpts(transitiveFixtureRoot(t), nil, lint.All(), lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Packages    int `json:"packages"`
		Diagnostics []struct {
			Analyzer string   `json:"analyzer"`
			File     string   `json:"file"`
			Line     int      `json:"line"`
			Col      int      `json:"col"`
			Message  string   `json:"message"`
			Chain    []string `json:"chain"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report JSON does not decode: %v", err)
	}
	if decoded.Packages == 0 {
		t.Error("packages count missing from JSON")
	}
	for _, d := range decoded.Diagnostics {
		if len(d.Chain) < 2 {
			t.Errorf("[%s] %s:%d: transitive diagnostic should carry a chain, got %v",
				d.Analyzer, d.File, d.Line, d.Chain)
		}
		if d.Line == 0 || d.Col == 0 || d.Message == "" {
			t.Errorf("diagnostic missing position/message: %+v", d)
		}
	}
}

// TestTimingJSONShape checks that -timing surfaces the load/graph/per-
// analyzer breakdown in the JSON report.
func TestTimingJSONShape(t *testing.T) {
	report, err := lint.RunOpts(transitiveFixtureRoot(t), nil, lint.All(), lint.Options{Timing: true})
	if err != nil {
		t.Fatal(err)
	}
	if report.Timing == nil {
		t.Fatal("Options.Timing did not populate Report.Timing")
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Timing *struct {
			LoadSeconds  float64            `json:"load_seconds"`
			GraphSeconds float64            `json:"graph_seconds"`
			Analyzers    map[string]float64 `json:"analyzers"`
		} `json:"timing"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Timing == nil {
		t.Fatal("timing missing from JSON report")
	}
	if decoded.Timing.LoadSeconds <= 0 {
		t.Error("load_seconds should be positive")
	}
	for _, name := range []string{"determinism", "hotpathalloc", "ctxflow", "goroleak"} {
		if _, ok := decoded.Timing.Analyzers[name]; !ok {
			t.Errorf("timing breakdown missing analyzer %q", name)
		}
	}
}
