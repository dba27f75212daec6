package perf

import (
	"fmt"
	"io"
	"strings"
)

// FormatRun renders a run document as a human-readable table: one line
// per scenario with the median of each core metric.
func FormatRun(w io.Writer, run *Run) {
	fmt.Fprintf(w, "perf run: %d scenarios, %d reps (warmup %d), host %s/%s cpus=%d %s",
		len(run.Scenarios), run.Config.Reps, run.Config.Warmup,
		run.Host.OS, run.Host.Arch, run.Host.CPUs, run.Host.GoVersion)
	if run.VCSRevision != "" {
		fmt.Fprintf(w, ", rev %s", shortRev(run.VCSRevision))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-28s %14s %14s %14s\n", "scenario", "ns/op", "allocs/op", "B/op")
	for i := range run.Scenarios {
		s := &run.Scenarios[i]
		ns, _ := median(s.NsPerOp)
		al, _ := median(s.AllocsPerOp)
		by, _ := median(s.BytesPerOp)
		fmt.Fprintf(w, "%-28s %14s %14.1f %14.0f\n", s.Name, formatNs(ns), al, by)
	}
}

// FormatReport renders a comparison: per scenario, one line per core
// metric that has data, with the median shift, p-value, and effect
// size. quiet hides metrics whose delta is insignificant and under
// 1 percent.
func FormatReport(w io.Writer, rep *Report, quiet bool) {
	fmt.Fprintf(w, "compare: old %s -> new %s (alpha %.3g)\n",
		revOrLabel(rep.OldRevision, "(unversioned)"),
		revOrLabel(rep.NewRevision, "(unversioned)"), rep.Alpha)
	if rep.HostMismatch {
		fmt.Fprintf(w, "WARNING: runs were captured on different hosts (%s/%s cpus=%d %s vs %s/%s cpus=%d %s); deltas include hardware differences\n",
			rep.OldHost.OS, rep.OldHost.Arch, rep.OldHost.CPUs, rep.OldHost.GoVersion,
			rep.NewHost.OS, rep.NewHost.Arch, rep.NewHost.CPUs, rep.NewHost.GoVersion)
	}
	fmt.Fprintf(w, "%-28s %-16s %12s %12s %9s %8s %7s\n",
		"scenario", "metric", "old", "new", "delta", "p", "effect")
	for _, sc := range rep.Scenarios {
		if sc.OnlyIn != "" {
			fmt.Fprintf(w, "%-28s only in %s run\n", sc.Name, sc.OnlyIn)
			continue
		}
		for _, d := range sc.Metrics {
			if !coreMetric(d.Metric) {
				continue
			}
			if quiet && !d.Significant && !(d.DeltaDefined && abs(d.DeltaPct) >= 1) {
				continue
			}
			fmt.Fprintf(w, "%-28s %-16s %12s %12s %9s %8s %7.2f%s\n",
				sc.Name, d.Metric,
				formatMetric(d.Metric, d.OldMedian), formatMetric(d.Metric, d.NewMedian),
				formatDelta(d), formatP(d), d.Effect, significanceTag(d))
		}
	}
}

// FormatRegressions renders the gate verdict.
func FormatRegressions(w io.Writer, regs []Regression, thresholdPct, alpha float64, failed bool) {
	if len(regs) == 0 {
		fmt.Fprintf(w, "perf gate: PASS — no significant regression beyond %.1f%% (alpha %.3g)\n",
			thresholdPct, alpha)
		return
	}
	for _, reg := range regs {
		verdict := "REGRESSION"
		if reg.Waived {
			verdict = "waived"
		}
		fmt.Fprintf(w, "perf gate: %s %s %s: %s -> %s (%s, p=%s, effect %.2f)",
			verdict, reg.Scenario, reg.Delta.Metric,
			formatMetric(reg.Delta.Metric, reg.Delta.OldMedian),
			formatMetric(reg.Delta.Metric, reg.Delta.NewMedian),
			formatDelta(reg.Delta), formatP(reg.Delta), reg.Delta.Effect)
		if reg.Waived {
			fmt.Fprintf(w, " — %s", reg.Reason)
		}
		fmt.Fprintln(w)
	}
	if failed {
		fmt.Fprintf(w, "perf gate: FAIL — significant regression beyond %.1f%% (alpha %.3g); optimize, or waive with a safesense:perf-waiver line (see perf/waivers.txt)\n",
			thresholdPct, alpha)
	} else {
		fmt.Fprintf(w, "perf gate: PASS — all regressions waived\n")
	}
}

func coreMetric(m string) bool {
	return m == MetricNsPerOp || m == MetricAllocsPerOp || m == MetricBytesPerOp
}

func formatMetric(metric string, v float64) string {
	if metric == MetricNsPerOp {
		return formatNs(v)
	}
	if v >= 1000 || v == float64(int64(v)) {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

// formatNs renders nanoseconds with an adaptive unit.
func formatNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3gs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.4gms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.4gµs", ns/1e3)
	}
	return fmt.Sprintf("%.4gns", ns)
}

func formatDelta(d MetricDelta) string {
	if !d.DeltaDefined {
		return "~"
	}
	return fmt.Sprintf("%+.1f%%", d.DeltaPct)
}

func formatP(d MetricDelta) string {
	if !d.PDefined {
		return "n<4"
	}
	return fmt.Sprintf("%.3f", d.P)
}

func significanceTag(d MetricDelta) string {
	if d.Significant {
		return "  *"
	}
	return ""
}

func revOrLabel(rev, label string) string {
	if rev == "" {
		return label
	}
	return shortRev(rev)
}

// shortRev abbreviates a full commit hash, keeping any -dirty suffix.
func shortRev(rev string) string {
	dirty := strings.HasSuffix(rev, "-dirty")
	h := strings.TrimSuffix(rev, "-dirty")
	if len(h) > 12 {
		h = h[:12]
	}
	if dirty {
		h += "-dirty"
	}
	return h
}

//safesense:floatcmp-helper
func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
