package perf

import (
	"math"
	"strings"
	"testing"

	"safesense/internal/obs"
)

// mkRun builds a run document with one scenario per entry; each entry's
// ns/op samples are given directly, allocs default to all-zero (a common
// real shape: fully amortized hot paths).
func mkRun(rev string, scenarios map[string][]float64) *Run {
	run := &Run{
		SchemaVersion: SchemaVersion,
		VCSRevision:   rev,
		Host:          obs.ReadHost(),
		Config:        Config{Reps: 8, Warmup: 1, MinRepMillis: 20},
	}
	for _, name := range sortedStrings(scenarios) {
		ns := scenarios[name]
		run.Scenarios = append(run.Scenarios, ScenarioResult{
			Name:        name,
			Group:       "test",
			Ops:         1,
			NsPerOp:     ns,
			AllocsPerOp: make([]float64, len(ns)),
			BytesPerOp:  make([]float64, len(ns)),
		})
	}
	return run
}

func sortedStrings(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func findScenario(t *testing.T, rep *Report, name string) ScenarioDelta {
	t.Helper()
	for _, sc := range rep.Scenarios {
		if sc.Name == name {
			return sc
		}
	}
	t.Fatalf("scenario %q not in report", name)
	return ScenarioDelta{}
}

func findMetric(t *testing.T, sc ScenarioDelta, metric string) MetricDelta {
	t.Helper()
	for _, d := range sc.Metrics {
		if d.Metric == metric {
			return d
		}
	}
	t.Fatalf("metric %q not in scenario %q", metric, sc.Name)
	return MetricDelta{}
}

// TestCompareIdenticalRuns: comparing a run against itself yields no
// significant deltas and a defined zero delta everywhere.
func TestCompareIdenticalRuns(t *testing.T) {
	run := mkRun("aaa", map[string][]float64{
		"kernel_fft": {100, 101, 99, 100, 102, 98, 100, 101},
	})
	rep := Compare(run, run, 0)
	if rep.Alpha != DefaultAlpha {
		t.Errorf("alpha=%v, want default %v", rep.Alpha, DefaultAlpha)
	}
	if rep.HostMismatch {
		t.Error("same host must not mismatch")
	}
	d := findMetric(t, findScenario(t, rep, "kernel_fft"), MetricNsPerOp)
	if d.Significant {
		t.Errorf("identical runs flagged significant: %+v", d)
	}
	if !d.DeltaDefined || d.DeltaPct != 0 {
		t.Errorf("identical runs: delta=%v defined=%v, want defined 0", d.DeltaPct, d.DeltaDefined)
	}
}

// TestCompareAllZeroAllocs: an all-zero allocation series on both sides
// is a defined zero delta (not undefined, not significant) — the gate
// must treat zero-alloc hot paths as stable, not degenerate.
func TestCompareAllZeroAllocs(t *testing.T) {
	run := mkRun("aaa", map[string][]float64{
		"hotpath": {50, 51, 49, 50, 50, 51, 49, 50},
	})
	rep := Compare(run, run, 0)
	d := findMetric(t, findScenario(t, rep, "hotpath"), MetricAllocsPerOp)
	if !d.DeltaDefined || d.DeltaPct != 0 {
		t.Errorf("0->0 allocs: delta=%v defined=%v, want defined 0", d.DeltaPct, d.DeltaDefined)
	}
	if d.Significant {
		t.Error("0->0 allocs flagged significant")
	}
	// Zero -> nonzero: percent delta is undefined but significance can
	// still fire, so the gate's DeltaDefined requirement is load-bearing.
	grew := mkRun("bbb", map[string][]float64{
		"hotpath": {50, 51, 49, 50, 50, 51, 49, 50},
	})
	grew.Scenarios[0].AllocsPerOp = []float64{3, 3, 3, 3, 3, 3, 3, 3}
	rep = Compare(run, grew, 0)
	d = findMetric(t, findScenario(t, rep, "hotpath"), MetricAllocsPerOp)
	if d.DeltaDefined {
		t.Errorf("0->3 allocs: delta defined (%v%%), want undefined", d.DeltaPct)
	}
	regs, failed := rep.Gate(GateOptions{})
	if failed {
		t.Errorf("undefined delta must not fail the gate: %+v", regs)
	}
}

// TestCompareTinyN: below the Mann-Whitney minimum the p-value is
// undefined and the scenario can never regress.
func TestCompareTinyN(t *testing.T) {
	old := mkRun("aaa", map[string][]float64{"s": {10, 11, 12}})
	new := mkRun("bbb", map[string][]float64{"s": {100, 110, 120}})
	rep := Compare(old, new, 0)
	d := findMetric(t, findScenario(t, rep, "s"), MetricNsPerOp)
	if d.PDefined || d.Significant {
		t.Errorf("n=3: p_defined=%v significant=%v, want neither", d.PDefined, d.Significant)
	}
	if !d.DeltaDefined {
		t.Error("median delta is still computable at n=3")
	}
	if _, failed := rep.Gate(GateOptions{}); failed {
		t.Error("tiny-N shift must not fail the gate")
	}
}

// TestCompareNaNSamples: non-finite samples are counted in Dropped and
// excluded from medians and ranking.
func TestCompareNaNSamples(t *testing.T) {
	old := mkRun("aaa", map[string][]float64{"s": {10, 10, 10, 10, math.NaN()}})
	new := mkRun("bbb", map[string][]float64{"s": {10, 10, 10, 10, math.Inf(1)}})
	rep := Compare(old, new, 0)
	d := findMetric(t, findScenario(t, rep, "s"), MetricNsPerOp)
	if d.Dropped != 2 {
		t.Errorf("dropped=%d, want 2", d.Dropped)
	}
	if d.OldN != 4 || d.NewN != 4 {
		t.Errorf("n=%d/%d, want 4/4", d.OldN, d.NewN)
	}
	if math.IsNaN(d.OldMedian) || math.IsInf(d.NewMedian, 0) {
		t.Errorf("medians contaminated: %v %v", d.OldMedian, d.NewMedian)
	}
}

// TestCompareScenarioDrift: scenarios present in only one run are
// reported as such, never diffed.
func TestCompareScenarioDrift(t *testing.T) {
	old := mkRun("aaa", map[string][]float64{
		"stays":   {1, 2, 3, 4},
		"removed": {1, 2, 3, 4},
	})
	new := mkRun("bbb", map[string][]float64{
		"stays": {1, 2, 3, 4},
		"added": {1, 2, 3, 4},
	})
	rep := Compare(old, new, 0)
	if got := findScenario(t, rep, "added").OnlyIn; got != "new" {
		t.Errorf("added: only_in=%q, want new", got)
	}
	if got := findScenario(t, rep, "removed").OnlyIn; got != "old" {
		t.Errorf("removed: only_in=%q, want old", got)
	}
	if got := findScenario(t, rep, "stays").OnlyIn; got != "" {
		t.Errorf("stays: only_in=%q, want empty", got)
	}
}

// TestGateSyntheticRegression is the acceptance-criterion test: an
// injected regression (clear separation, > threshold) fails the gate; a
// matching waiver reports it without failing.
func TestGateSyntheticRegression(t *testing.T) {
	old := mkRun("aaa", map[string][]float64{
		"kernel_fft": {100, 101, 99, 100, 102, 98, 100, 101},
		"quiet":      {50, 51, 49, 50, 50, 51, 49, 50},
	})
	// 50% slower with no overlap: unambiguous.
	new := mkRun("bbb", map[string][]float64{
		"kernel_fft": {150, 151, 149, 150, 152, 148, 150, 151},
		"quiet":      {50, 51, 49, 50, 50, 51, 49, 50},
	})
	rep := Compare(old, new, 0)

	regs, failed := rep.Gate(GateOptions{})
	if !failed {
		t.Fatal("injected 50% regression did not fail the gate")
	}
	if len(regs) != 1 || regs[0].Scenario != "kernel_fft" {
		t.Fatalf("regressions = %+v, want exactly kernel_fft", regs)
	}
	if regs[0].Delta.Metric != MetricNsPerOp || regs[0].Waived {
		t.Errorf("regression = %+v, want unwaived ns_per_op", regs[0])
	}
	if regs[0].Delta.DeltaPct < 40 || regs[0].Delta.Effect != 1 {
		t.Errorf("delta=%v%% effect=%v, want ~50%% and 1", regs[0].Delta.DeltaPct, regs[0].Delta.Effect)
	}

	// The same regression under a waiver: reported, not fatal.
	regs, failed = rep.Gate(GateOptions{
		Waivers: map[string]string{"kernel_fft": "known slowdown, tracked"},
	})
	if failed {
		t.Error("waived regression still failed the gate")
	}
	if len(regs) != 1 || !regs[0].Waived || regs[0].Reason != "known slowdown, tracked" {
		t.Errorf("waived regressions = %+v", regs)
	}

	// Raising the threshold above the shift passes outright.
	regs, failed = rep.Gate(GateOptions{ThresholdPct: 75})
	if failed || len(regs) != 0 {
		t.Errorf("threshold 75%%: regs=%+v failed=%v, want clean pass", regs, failed)
	}
}

// TestGateAbsoluteFloor: near-zero allocation medians can shift a large
// relative amount on sub-allocation noise; the absolute floor keeps
// that out of the gate while real per-op allocation growth still fails.
func TestGateAbsoluteFloor(t *testing.T) {
	mk := func(allocs []float64) *Run {
		run := mkRun("r", map[string][]float64{
			"hotpath": {50, 51, 49, 50, 50, 51, 49, 50},
		})
		run.Scenarios[0].AllocsPerOp = allocs
		return run
	}
	// 0.01 -> 0.02 allocs/op: +100%, clearly separated, but far below
	// half an allocation — noise, not a regression.
	old := mk([]float64{0.010, 0.011, 0.009, 0.010, 0.010, 0.011, 0.009, 0.010})
	new := mk([]float64{0.020, 0.021, 0.019, 0.020, 0.020, 0.021, 0.019, 0.020})
	if regs, failed := Compare(old, new, 0).Gate(GateOptions{}); failed {
		t.Errorf("sub-allocation noise failed the gate: %+v", regs)
	}
	// 2 -> 4 allocs/op clears both the relative threshold and the floor.
	old = mk([]float64{2, 2, 2, 2, 2, 2, 2, 2})
	new = mk([]float64{4, 4, 4, 4, 4, 4, 4, 4})
	if _, failed := Compare(old, new, 0).Gate(GateOptions{}); !failed {
		t.Error("real allocation doubling passed the gate")
	}
}

// TestGateIgnoresImprovements: a significant speedup must never trip
// the gate.
func TestGateIgnoresImprovements(t *testing.T) {
	old := mkRun("aaa", map[string][]float64{
		"s": {150, 151, 149, 150, 152, 148, 150, 151},
	})
	new := mkRun("bbb", map[string][]float64{
		"s": {100, 101, 99, 100, 102, 98, 100, 101},
	})
	regs, failed := Compare(old, new, 0).Gate(GateOptions{})
	if failed || len(regs) != 0 {
		t.Errorf("improvement tripped the gate: %+v", regs)
	}
}

// TestGateMetricSelection: non-default gated metrics are honored.
func TestGateMetricSelection(t *testing.T) {
	old := mkRun("aaa", map[string][]float64{"s": {100, 101, 99, 100, 102, 98, 100, 101}})
	new := mkRun("bbb", map[string][]float64{"s": {100, 101, 99, 100, 102, 98, 100, 101}})
	new.Scenarios[0].BytesPerOp = []float64{900, 901, 899, 900, 902, 898, 900, 901}
	old.Scenarios[0].BytesPerOp = []float64{100, 101, 99, 100, 102, 98, 100, 101}
	rep := Compare(old, new, 0)
	// bytes_per_op is not gated by default.
	if _, failed := rep.Gate(GateOptions{}); failed {
		t.Error("bytes_per_op regression failed the default gate")
	}
	regs, failed := rep.Gate(GateOptions{Metrics: []string{MetricBytesPerOp}})
	if !failed || len(regs) != 1 {
		t.Errorf("explicit bytes gate: regs=%+v failed=%v", regs, failed)
	}
}

func TestValidateSchema(t *testing.T) {
	run := mkRun("aaa", nil)
	if err := run.ValidateSchema(); err != nil {
		t.Errorf("current schema rejected: %v", err)
	}
	run.SchemaVersion = SchemaVersion + 7
	err := run.ValidateSchema()
	if err == nil || !strings.Contains(err.Error(), "schema_version") {
		t.Errorf("future schema accepted: %v", err)
	}
}

// TestFormatReportAndRegressions exercises the text renderers over a
// report with a mismatch warning, a regression, and drift lines.
func TestFormatReportAndRegressions(t *testing.T) {
	old := mkRun("aaaaaaaaaaaaaaaaaaaa", map[string][]float64{
		"kernel_fft": {100, 101, 99, 100, 102, 98, 100, 101},
		"removed":    {1, 2, 3, 4},
	})
	new := mkRun("bbbbbbbbbbbbbbbbbbbb-dirty", map[string][]float64{
		"kernel_fft": {150, 151, 149, 150, 152, 148, 150, 151},
	})
	new.Host.CPUs = old.Host.CPUs + 4
	rep := Compare(old, new, 0)

	var b strings.Builder
	FormatReport(&b, rep, false)
	out := b.String()
	for _, want := range []string{
		"aaaaaaaaaaaa", "bbbbbbbbbbbb-dirty", "WARNING", "kernel_fft",
		"ns_per_op", "+50.", "only in old run",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}

	regs, failed := rep.Gate(GateOptions{})
	b.Reset()
	FormatRegressions(&b, regs, DefaultThresholdPct, DefaultAlpha, failed)
	out = b.String()
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "FAIL") {
		t.Errorf("regression output missing verdict:\n%s", out)
	}
	if !strings.Contains(out, WaiverDirective) {
		t.Errorf("failure message does not mention the waiver escape hatch:\n%s", out)
	}

	b.Reset()
	FormatRegressions(&b, nil, DefaultThresholdPct, DefaultAlpha, false)
	if !strings.Contains(b.String(), "PASS") {
		t.Errorf("clean gate output missing PASS:\n%s", b.String())
	}
}

func TestFormatRun(t *testing.T) {
	run := mkRun("cccccccccccccccccccc", map[string][]float64{
		"kernel_fft": {46000, 46100, 45900, 46000},
	})
	var b strings.Builder
	FormatRun(&b, run)
	out := b.String()
	for _, want := range []string{"kernel_fft", "46", "µs", "cccccccccccc"} {
		if !strings.Contains(out, want) {
			t.Errorf("run output missing %q:\n%s", want, out)
		}
	}
}
