package report

import (
	"strings"
	"testing"

	"safesense/internal/attack"
	"safesense/internal/radar"
	"safesense/internal/sim"
	"safesense/internal/trace"
)

func TestFigureReproducesPaperShape(t *testing.T) {
	f, err := Figure("fig2a", sim.Fig2aDoS())
	if err != nil {
		t.Fatal(err)
	}
	// Three series per channel.
	for _, set := range []*trace.Set{f.Distance, f.Velocity} {
		names := set.Names()
		if len(names) != 3 {
			t.Fatalf("series = %v", names)
		}
	}
	// With-attack series must depart from the without-attack series during
	// the attack (DoS garbage ~240 vs truth <60).
	with := f.Distance.Series(sim.SeriesMeasured)
	without := f.Distance.Series(sim.SeriesNoAttack)
	w250, _ := with.At(250)
	wo250, _ := without.At(250)
	if w250-wo250 < 50 {
		t.Fatalf("with-attack %v vs without %v: corruption not visible", w250, wo250)
	}
	// Estimated series exists only during the attack and tracks the
	// without-attack curve far better than the corrupted one.
	est := f.Distance.Series(sim.SeriesEstimated)
	if _, ok := est.At(100); ok {
		t.Fatal("estimates must not exist before the attack")
	}
	e250, ok := est.At(250)
	if !ok {
		t.Fatal("estimates missing during attack")
	}
	if diff := abs(e250 - wo250); diff > 15 {
		t.Fatalf("estimate %v vs clean %v too far apart", e250, wo250)
	}
	// Summary and render produce non-trivial output.
	if !strings.Contains(f.Summary(), "detected at k = 182") {
		t.Fatalf("summary: %s", f.Summary())
	}
	var sb strings.Builder
	if err := f.Render(&sb, trace.PlotOptions{Width: 60, Height: 10}); err != nil {
		t.Fatal(err)
	}
	if len(sb.String()) < 500 {
		t.Fatal("render output suspiciously small")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestAllFigures(t *testing.T) {
	for _, s := range []struct {
		id   string
		scen sim.Scenario
	}{
		{"fig2a", sim.Fig2aDoS()},
		{"fig2b", sim.Fig2bDelay()},
		{"fig3a", sim.Fig3aDoS()},
		{"fig3b", sim.Fig3bDelay()},
	} {
		f, err := Figure(s.id, s.scen)
		if err != nil {
			t.Fatal(err)
		}
		if f.ID != s.id || f.Defended.DetectedAt != 182 {
			t.Fatalf("%s: id %q, detected at %d", s.id, f.ID, f.Defended.DetectedAt)
		}
	}
}

func TestTable1MatchesPaperClaims(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.DetectedAt != 182 {
			t.Fatalf("%s: detected at %d, want 182", r.Attack, r.DetectedAt)
		}
		if r.FalsePositives != 0 || r.FalseNegatives != 0 {
			t.Fatalf("%s: FP=%d FN=%d", r.Attack, r.FalsePositives, r.FalseNegatives)
		}
		if r.Collision {
			t.Fatalf("%s: collision despite defense", r.Attack)
		}
		if r.EstimateSteps != 119 {
			t.Fatalf("%s: %d estimate steps, want 119", r.Attack, r.EstimateSteps)
		}
		if r.RLSTime <= 0 {
			t.Fatalf("%s: no RLS time recorded", r.Attack)
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "fig2a-dos-const-decel") {
		t.Fatalf("format: %s", out)
	}
}

func TestJammerSweepShape(t *testing.T) {
	p := radar.BoschLRR2()
	j := attack.PaperJammer()
	rows := JammerSweep(p, j, 12)
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Ratio decreases with distance; paper's jammer succeeds at 100 m.
	for i := 1; i < len(rows); i++ {
		if rows[i].PowerRatio >= rows[i-1].PowerRatio {
			t.Fatalf("ratio not decreasing at %v m", rows[i].Distance)
		}
	}
	found := false
	for _, r := range rows {
		if r.Distance >= 90 && r.Distance <= 110 && r.Succeeds {
			found = true
		}
	}
	_ = found // the 100 m point may fall between grid points; check nearest
	if !j.Succeeds(p, 100) {
		t.Fatal("paper jammer must succeed at 100 m")
	}
	out := FormatJammerSweep(p, j, rows)
	if !strings.Contains(out, "burn-through") {
		t.Fatalf("format: %s", out)
	}
}

func TestEstimatorAblationOrdering(t *testing.T) {
	rows, err := EstimatorAblation()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]EstimatorRow{}
	for _, r := range rows {
		byName[r.Estimator] = r
	}
	rec, ok := byName["rls-recovery (paper)"]
	if !ok {
		t.Fatalf("rows: %+v", rows)
	}
	// The paper's pipeline must beat the naive LMS AR free-run, which is
	// expected to diverge.
	lms := byName["lms-ar4"]
	if !(rec.DistRMSE < lms.DistRMSE) {
		t.Fatalf("recovery RMSE %v not better than LMS %v", rec.DistRMSE, lms.DistRMSE)
	}
	// And be at least competitive with the Kalman baseline.
	kal := byName["kalman-cv"]
	if rec.DistRMSE > kal.DistRMSE*3+10 {
		t.Fatalf("recovery %v vastly worse than kalman %v", rec.DistRMSE, kal.DistRMSE)
	}
	out := FormatEstimatorAblation(rows)
	if !strings.Contains(out, "rls-recovery") {
		t.Fatalf("format: %s", out)
	}
}

func TestDetectorAblationShape(t *testing.T) {
	rows, err := DetectorAblation()
	if err != nil {
		t.Fatal(err)
	}
	var craRows, chiRows []DetectorRow
	for _, r := range rows {
		if strings.HasPrefix(r.Detector, "cra") {
			craRows = append(craRows, r)
		} else {
			chiRows = append(chiRows, r)
		}
	}
	if len(craRows) < 3 || len(chiRows) < 2 {
		t.Fatalf("row split: %d cra, %d chi", len(craRows), len(chiRows))
	}
	// CRA never false-alarms.
	for _, r := range craRows {
		if r.FPClean != 0 {
			t.Fatalf("CRA false positives: %+v", r)
		}
	}
	// Chi-square catches the gross DoS corruption quickly.
	for _, r := range chiRows {
		if r.LatencyDoS < 0 || r.LatencyDoS > 20 {
			t.Fatalf("chi-square DoS latency: %+v", r)
		}
	}
	// The +6 m delay attack is harder for the residual detector than the
	// DoS flood on at least the strictest threshold.
	hard := false
	for _, r := range chiRows {
		if r.LatencyDelay < 0 || r.LatencyDelay > r.LatencyDoS {
			hard = true
		}
	}
	if !hard {
		t.Fatalf("delay attack unexpectedly easy for chi-square: %+v", chiRows)
	}
	out := FormatDetectorAblation(rows)
	if !strings.Contains(out, "chi-square") {
		t.Fatalf("format: %s", out)
	}
}

func TestBeatAblationMUSICCompetitive(t *testing.T) {
	rows, err := BeatAblation(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Both extractors stay within a few meters across the range at 256
	// samples.
	for _, r := range rows {
		if r.Samples == 256 && r.DistRMSE > 5 {
			t.Fatalf("%s at %v m: dist RMSE %v", r.Extractor, r.Distance, r.DistRMSE)
		}
	}
	out := FormatBeatAblation(rows)
	if !strings.Contains(out, "root-music") {
		t.Fatalf("format: %s", out)
	}
}
