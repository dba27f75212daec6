// Package report regenerates every figure and table of the paper's
// evaluation (Section 6.2) plus the ablations documented in DESIGN.md, and
// formats paper-vs-measured summaries. cmd/experiments is a thin CLI over
// this package.
package report

import (
	"fmt"
	"io"
	"strings"

	"safesense/internal/sim"
	"safesense/internal/trace"
)

// FigureResult bundles one reproduced figure: the three-curve trace sets
// (without attack / with attack / estimated) for both radar channels, and
// the runs they came from.
type FigureResult struct {
	ID       string
	Title    string
	Distance *trace.Set
	Velocity *trace.Set

	Baseline *sim.Result // no attack
	Defended *sim.Result // attack + CRA/RLS defense
}

// Figure reproduces one of Figures 2a/2b/3a/3b from its scenario: it runs
// the clean baseline and the defended attacked run, then assembles the
// figure's three curves per channel exactly as the paper plots them.
func Figure(id string, scen sim.Scenario) (*FigureResult, error) {
	baseline, err := sim.Run(sim.Baseline(scen))
	if err != nil {
		return nil, fmt.Errorf("report: baseline run: %w", err)
	}
	defended, err := sim.Run(scen)
	if err != nil {
		return nil, fmt.Errorf("report: defended run: %w", err)
	}
	fr := &FigureResult{
		ID:       id,
		Title:    scen.Name,
		Baseline: baseline,
		Defended: defended,
	}
	fr.Distance = assemble(id+": relative distance", "time (s)", "distance (m)",
		baseline.Distance, defended.Distance)
	fr.Velocity = assemble(id+": relative velocity", "time (s)", "velocity (m/s)",
		baseline.Velocity, defended.Velocity)
	return fr, nil
}

// assemble merges the baseline's measured series and the defended run's
// measured + estimated series into one figure-ready set.
func assemble(title, xl, yl string, base, def *trace.Set) *trace.Set {
	out := trace.NewSet(title, xl, yl)
	copySeries(out.Add(sim.SeriesNoAttack), base.Series(sim.SeriesMeasured))
	copySeries(out.Add(sim.SeriesMeasured), def.Series(sim.SeriesMeasured))
	copySeries(out.Add(sim.SeriesEstimated), def.Series(sim.SeriesEstimated))
	return out
}

func copySeries(dst, src *trace.Series) {
	if src == nil {
		return
	}
	for i, t := range src.T {
		dst.Append(t, src.Y[i])
	}
}

// Summary returns the one-paragraph check of the figure's expected shape.
func (f *FigureResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s)\n", f.ID, f.Title)
	fmt.Fprintf(&b, "  attack detected at k = %d (paper: 182)\n", f.Defended.DetectedAt)
	fmt.Fprintf(&b, "  challenge-instant confusion: TP=%d TN=%d FP=%d FN=%d (paper: no FP/FN)\n",
		f.Defended.Accuracy.TruePositives, f.Defended.Accuracy.TrueNegatives,
		f.Defended.Accuracy.FalsePositives, f.Defended.Accuracy.FalseNegatives)
	fmt.Fprintf(&b, "  estimates delivered: %d steps, distance RMSE %.2f m, velocity RMSE %.3f m/s vs truth\n",
		f.Defended.EstimateSteps, f.Defended.EstimateDistRMSE, f.Defended.EstimateVelRMSE)
	fmt.Fprintf(&b, "  defended min gap %.2f m (collision: %v); baseline min gap %.2f m\n",
		f.Defended.MinGap, f.Defended.CollisionAt >= 0, f.Baseline.MinGap)
	fmt.Fprintf(&b, "  RLS time over attack window: %d ns (paper: ~1.2e7–1.3e7 ns in MATLAB)\n",
		f.Defended.RLSTime.Nanoseconds())
	return b.String()
}

// Render writes the ASCII plots and summary to w.
func (f *FigureResult) Render(w io.Writer, opt trace.PlotOptions) error {
	if err := f.Distance.RenderASCII(w, opt); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := f.Velocity.RenderASCII(w, opt); err != nil {
		return err
	}
	fmt.Fprintln(w)
	_, err := io.WriteString(w, f.Summary())
	return err
}
