package perf

import (
	"fmt"
	"sort"

	"safesense/internal/obs"
)

// MetricDelta compares one metric of one scenario across two runs.
type MetricDelta struct {
	Metric string `json:"metric"`

	OldMedian float64 `json:"old_median"`
	NewMedian float64 `json:"new_median"`
	OldN      int     `json:"old_n"`
	NewN      int     `json:"new_n"`

	// DeltaPct is (new-old)/old in percent; DeltaDefined is false when
	// the old median is zero (e.g. an all-zero allocation series) or a
	// side is empty, in which case DeltaPct is meaningless and held at 0.
	DeltaPct     float64 `json:"delta_pct"`
	DeltaDefined bool    `json:"delta_defined"`

	// P is the two-sided Mann-Whitney p-value; PDefined is false when
	// either side had fewer than the minimum finite samples.
	P        float64 `json:"p"`
	PDefined bool    `json:"p_defined"`
	// Effect is Cliff's delta in [-1, 1]; positive means the new samples
	// tend larger.
	Effect float64 `json:"effect"`

	// Significant is PDefined && P < the report's Alpha.
	Significant bool `json:"significant"`

	// Dropped counts non-finite samples removed before comparison
	// (old + new); nonzero values deserve suspicion.
	Dropped int `json:"dropped,omitempty"`
}

// ScenarioDelta groups a scenario's metric deltas; OnlyIn marks
// scenarios present in just one run (suite drift).
type ScenarioDelta struct {
	Name    string        `json:"name"`
	Group   string        `json:"group,omitempty"`
	OnlyIn  string        `json:"only_in,omitempty"` // "old" or "new"
	Metrics []MetricDelta `json:"metrics,omitempty"`
}

// Report is the full two-run comparison `safesense-perf compare` emits.
type Report struct {
	Alpha       float64  `json:"alpha"`
	OldRevision string   `json:"old_revision,omitempty"`
	NewRevision string   `json:"new_revision,omitempty"`
	OldHost     obs.Host `json:"old_host"`
	NewHost     obs.Host `json:"new_host"`
	// HostMismatch flags comparisons across differing machine shapes:
	// still rendered, but deltas reflect the hardware as much as the
	// code.
	HostMismatch bool `json:"host_mismatch,omitempty"`

	Scenarios []ScenarioDelta `json:"scenarios"`
}

// DefaultAlpha is the significance level the comparator and gate use
// unless overridden.
const DefaultAlpha = 0.05

// Compare diffs two runs scenario by scenario, metric by metric. Alpha
// <= 0 means DefaultAlpha. Scenario order follows the new run, with
// old-only scenarios appended.
func Compare(old, new *Run, alpha float64) *Report {
	if alpha <= 0 {
		alpha = DefaultAlpha
	}
	rep := &Report{
		Alpha:        alpha,
		OldRevision:  old.VCSRevision,
		NewRevision:  new.VCSRevision,
		OldHost:      old.Host,
		NewHost:      new.Host,
		HostMismatch: !old.Host.Equal(new.Host),
	}

	oldByName := make(map[string]*ScenarioResult, len(old.Scenarios))
	for i := range old.Scenarios {
		oldByName[old.Scenarios[i].Name] = &old.Scenarios[i]
	}
	seen := make(map[string]bool, len(new.Scenarios))
	for i := range new.Scenarios {
		ns := &new.Scenarios[i]
		seen[ns.Name] = true
		os, ok := oldByName[ns.Name]
		if !ok {
			rep.Scenarios = append(rep.Scenarios, ScenarioDelta{
				Name: ns.Name, Group: ns.Group, OnlyIn: "new",
			})
			continue
		}
		rep.Scenarios = append(rep.Scenarios, compareScenario(os, ns, alpha))
	}
	// Old-only scenarios, in the old run's order.
	for i := range old.Scenarios {
		if s := &old.Scenarios[i]; !seen[s.Name] {
			rep.Scenarios = append(rep.Scenarios, ScenarioDelta{
				Name: s.Name, Group: s.Group, OnlyIn: "old",
			})
		}
	}
	return rep
}

// compareScenario diffs every metric present in either side, core
// metrics first, extras in sorted-name order.
func compareScenario(old, new *ScenarioResult, alpha float64) ScenarioDelta {
	sd := ScenarioDelta{Name: new.Name, Group: new.Group}
	names := metricUnion(old, new)
	for _, m := range names {
		sd.Metrics = append(sd.Metrics, compareMetric(m, old.Samples(m), new.Samples(m), alpha))
	}
	return sd
}

// metricUnion merges both sides' metric names, core three first, extras
// sorted.
func metricUnion(old, new *ScenarioResult) []string {
	extras := make(map[string]bool)
	for k := range old.Extra {
		extras[k] = true
	}
	for k := range new.Extra {
		extras[k] = true
	}
	keys := make([]string, 0, len(extras))
	for k := range extras {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return append([]string{MetricNsPerOp, MetricAllocsPerOp, MetricBytesPerOp}, keys...)
}

// compareMetric builds one MetricDelta, guarding every degenerate
// combination: empty sides, zero old medians, non-finite samples, tiny
// sample counts.
func compareMetric(name string, oldS, newS []float64, alpha float64) MetricDelta {
	oldF, droppedOld := finite(oldS)
	newF, droppedNew := finite(newS)
	d := MetricDelta{
		Metric:  name,
		OldN:    len(oldF),
		NewN:    len(newF),
		Dropped: droppedOld + droppedNew,
	}
	om, oOK := median(oldF)
	nm, nOK := median(newF)
	d.OldMedian, d.NewMedian = om, nm
	if oOK && nOK && om != 0 {
		d.DeltaPct = (nm - om) / om * 100
		d.DeltaDefined = true
	} else if oOK && nOK && nm == om {
		// 0 → 0 (all-zero allocation series): a defined, exact zero delta.
		d.DeltaPct = 0
		d.DeltaDefined = true
	}
	if p, ok := MannWhitney(oldF, newF); ok {
		d.P, d.PDefined = p, true
		d.Significant = p < alpha
	}
	d.Effect = CliffsDelta(oldF, newF)
	return d
}

// GateOptions tunes the regression gate `safesense-perf check` applies
// to a Report.
type GateOptions struct {
	// ThresholdPct is the minimum median worsening (percent) that
	// counts as a regression; <= 0 means DefaultThresholdPct. Holding a
	// threshold above pure significance keeps the gate from tripping on
	// real-but-tiny shifts a shared CI box produces.
	ThresholdPct float64
	// Metrics are the gated metric names; nil means DefaultGateMetrics.
	// Gated metrics are all "larger is worse".
	Metrics []string
	// Waivers maps scenario names to a reason; a waived scenario's
	// regressions are reported but do not fail the gate (the
	// safesense:perf-waiver escape hatch).
	Waivers map[string]string
	// MinAbsDelta sets a per-metric absolute floor the median shift must
	// also clear; nil means DefaultMinAbsDelta. Without it, a fully
	// amortized hot path reading 0.01 allocs/op can "regress" 15% on
	// background-GC noise worth a hundredth of an allocation.
	MinAbsDelta map[string]float64
}

// DefaultMinAbsDelta ignores allocation shifts below half an allocation
// per op — relative thresholds alone misfire on near-zero medians.
var DefaultMinAbsDelta = map[string]float64{MetricAllocsPerOp: 0.5}

// DefaultThresholdPct is the gate's default median-worsening threshold.
const DefaultThresholdPct = 10.0

// DefaultGateMetrics are the metrics the gate defends: wall time and
// allocation count, both stable under repetition and both "larger is
// worse". Extra series (phase timings, runs_per_sec) stay advisory.
var DefaultGateMetrics = []string{MetricNsPerOp, MetricAllocsPerOp}

// Regression is one gate finding.
type Regression struct {
	Scenario string      `json:"scenario"`
	Delta    MetricDelta `json:"delta"`
	// Waived regressions are reported but not fatal; Reason carries the
	// waiver text.
	Waived bool   `json:"waived,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// Gate scans the report for statistically significant regressions
// beyond the threshold on the gated metrics. failed is true when any
// unwaived regression exists. A regression requires all three: a
// defined median delta past the threshold, a defined p-value below
// alpha, and a positive effect size — so noise, tiny-N scenarios, and
// all-zero series can never fail the build on their own.
func (r *Report) Gate(opt GateOptions) (regressions []Regression, failed bool) {
	threshold := opt.ThresholdPct
	if threshold <= 0 {
		threshold = DefaultThresholdPct
	}
	metrics := opt.Metrics
	if metrics == nil {
		metrics = DefaultGateMetrics
	}
	gated := make(map[string]bool, len(metrics))
	for _, m := range metrics {
		gated[m] = true
	}
	minAbs := opt.MinAbsDelta
	if minAbs == nil {
		minAbs = DefaultMinAbsDelta
	}
	for _, sc := range r.Scenarios {
		for _, d := range sc.Metrics {
			if !gated[d.Metric] {
				continue
			}
			if !d.DeltaDefined || !d.PDefined || !d.Significant {
				continue
			}
			if d.DeltaPct < threshold || d.Effect <= 0 {
				continue
			}
			if d.NewMedian-d.OldMedian < minAbs[d.Metric] {
				continue
			}
			reg := Regression{Scenario: sc.Name, Delta: d}
			if reason, ok := opt.Waivers[sc.Name]; ok {
				reg.Waived = true
				reg.Reason = reason
			} else {
				failed = true
			}
			regressions = append(regressions, reg)
		}
	}
	return regressions, failed
}

// CheckResult is the JSON document `safesense-perf check -json` emits.
type CheckResult struct {
	Failed       bool         `json:"failed"`
	ThresholdPct float64      `json:"threshold_pct"`
	Alpha        float64      `json:"alpha"`
	Regressions  []Regression `json:"regressions"`
}

// ValidateSchema rejects runs from an unknown schema generation with an
// actionable error.
func (r *Run) ValidateSchema() error {
	if r.SchemaVersion != SchemaVersion {
		return fmt.Errorf("perf: run has schema_version %d, this binary reads %d (regenerate the file with the matching safesense-perf)",
			r.SchemaVersion, SchemaVersion)
	}
	return nil
}
