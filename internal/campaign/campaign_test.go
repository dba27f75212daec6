package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"safesense/internal/sim"
)

// testSpec is a small Fig 2-style grid: 2 attacks × 2 onsets × 2
// replicates = 8 jobs on the paper schedule and horizon. Both onsets are
// challenge instants, so detection is immediate and the defense holds.
func testSpec() Spec {
	return Spec{
		Name:       "unit",
		Steps:      301,
		BaseSeed:   7,
		Replicates: 2,
		Attacks:    []string{AttackDoS, AttackDelay},
		Onsets:     []int{175, 182},
	}
}

func TestExpandGrid(t *testing.T) {
	jobs, err := testSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 8 {
		t.Fatalf("len(jobs) = %d, want 8", len(jobs))
	}
	n, err := testSpec().NumJobs()
	if err != nil || n != len(jobs) {
		t.Fatalf("NumJobs = %d, %v; want %d", n, err, len(jobs))
	}
	seeds := map[int64]bool{}
	for i, j := range jobs {
		if j.Index != i {
			t.Fatalf("job %d has index %d", i, j.Index)
		}
		if seeds[j.Point.Seed] {
			t.Fatalf("duplicate derived seed %d", j.Point.Seed)
		}
		seeds[j.Point.Seed] = true
		if _, err := j.Point.Scenario(); err != nil {
			t.Fatalf("job %d scenario: %v", i, err)
		}
	}
	// Expansion is a pure function of the spec.
	again, err := testSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jobs, again) {
		t.Fatal("Expand is not deterministic")
	}
}

func TestExpandCollapsesIrrelevantAxes(t *testing.T) {
	sp := Spec{
		Attacks:        []string{AttackNone, AttackDoS, AttackDelay},
		Onsets:         []int{100, 150},
		OffsetsM:       []float64{3, 6, 9},
		JammerPowersMW: []float64{50, 100},
	}
	jobs, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// none: 1, dos: 2 onsets × 2 powers = 4, delay: 2 onsets × 3 offsets = 6.
	if len(jobs) != 11 {
		t.Fatalf("len(jobs) = %d, want 11", len(jobs))
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Attacks: []string{"emp"}},
		{Leaders: []string{"teleport"}},
		{Onsets: []int{-1}},
		{Steps: 100, Onsets: []int{100}},
		{OffsetsM: []float64{0}},
		{JammerPowersMW: []float64{-1}},
		{Schedules: []ScheduleSpec{{Kind: "quantum"}}},
	}
	for i, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("spec %d should fail validation", i)
		}
	}
	if err := (Spec{}).Validate(); err != nil {
		t.Fatalf("zero spec (all defaults) should validate: %v", err)
	}
}

func TestDeriveSeedSpread(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 10000; i++ {
		s := DeriveSeed(1, i)
		if seen[s] {
			t.Fatalf("seed collision at index %d", i)
		}
		seen[s] = true
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Fatal("base seed must change the derivation")
	}
}

func TestPointScenarioMatchesPaperFigures(t *testing.T) {
	p := Point{Attack: AttackDoS, Leader: LeaderConst, Onset: 182, JammerMW: 100, Steps: 301, Seed: 1, Defended: true}
	s, err := p.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Fig 2a configuration: detected exactly at onset.
	if res.DetectedAt != 182 {
		t.Fatalf("DetectedAt = %d, want 182", res.DetectedAt)
	}
	if res.Accuracy.FalsePositives != 0 || res.Accuracy.FalseNegatives != 0 {
		t.Fatalf("confusion FP=%d FN=%d, want 0/0", res.Accuracy.FalsePositives, res.Accuracy.FalseNegatives)
	}
}

// TestPointLabelNamesDefaultJammer: a DoS point that leaves JammerMW at
// zero runs the paper's 100 mW jammer, and its label says so — the
// same label and the same scenario as the explicit 100 mW point.
func TestPointLabelNamesDefaultJammer(t *testing.T) {
	zero := Point{Attack: AttackDoS, Leader: LeaderConst, Onset: 150, Steps: 301, Seed: 1}
	explicit := zero
	explicit.JammerMW = 100
	if got, want := zero.Label(), explicit.Label(); got != want || got != "dos/const/paper/onset=150/jam=100mW/seed=1" {
		t.Fatalf("labels %q and %q, want both dos/const/paper/onset=150/jam=100mW/seed=1", got, want)
	}
	zs, err := zero.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	es, err := explicit.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zs, es) {
		t.Fatalf("scenarios differ:\nzero     %+v\nexplicit %+v", zs, es)
	}
}

// deterministicView strips the wall-clock timing fields so summaries can
// be byte-compared.
func deterministicView(t *testing.T, s *Summary) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Aggregate Aggregate `json:"aggregate"`
		Outcomes  []Outcome `json:"outcomes"`
	}{s.Aggregate, s.Outcomes})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunDeterministicAcrossWorkerCounts is the concurrency regression
// test: the same spec + base seed must produce byte-identical campaign
// results sequentially and on a parallel pool (run under -race in CI).
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	var ref []byte
	for _, workers := range []int{1, 4, 8} {
		sum, err := Run(context.Background(), testSpec(), Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		view := deterministicView(t, sum)
		if ref == nil {
			ref = view
			continue
		}
		if string(view) != string(ref) {
			t.Fatalf("workers=%d produced different results than workers=1", workers)
		}
	}
}

func TestRunAggregatesPaperGrid(t *testing.T) {
	sum, err := Run(context.Background(), testSpec(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	agg := sum.Aggregate
	if agg.Jobs != 8 || agg.Attacked != 8 {
		t.Fatalf("Jobs=%d Attacked=%d, want 8/8", agg.Jobs, agg.Attacked)
	}
	if agg.Detected != 8 || agg.Missed != 0 {
		t.Fatalf("Detected=%d Missed=%d, want 8/0", agg.Detected, agg.Missed)
	}
	// Zero false positives / negatives on the paper schedule — the
	// Section 6.2 claim, now over a grid instead of two runs.
	if agg.FalsePositives != 0 || agg.FalseNegatives != 0 {
		t.Fatalf("FP=%d FN=%d, want 0/0", agg.FalsePositives, agg.FalseNegatives)
	}
	// Both onsets coincide with challenge instants: instant detection.
	if agg.Latency.N != 8 || agg.Latency.Max != 0 || agg.Latency.P50 != 0 {
		t.Fatalf("latency stats = %+v", agg.Latency)
	}
	if agg.Latency.Histogram == nil || agg.Latency.Histogram.N != 8 {
		t.Fatalf("latency histogram = %+v", agg.Latency.Histogram)
	}
	if agg.Collisions != 0 || agg.CollisionRate != 0 {
		t.Fatalf("collisions = %d", agg.Collisions)
	}
	if agg.EstimatedRuns != 8 || agg.MeanDistRMSEm <= 0 || agg.WorstDistErrM < agg.MeanDistRMSEm {
		t.Fatalf("gap error stats: runs=%d mean=%g worst=%g",
			agg.EstimatedRuns, agg.MeanDistRMSEm, agg.WorstDistErrM)
	}
	if agg.WorstMinGapM <= 0 {
		t.Fatalf("WorstMinGapM = %g, want positive (no collision)", agg.WorstMinGapM)
	}
	if sum.RunsPerSec <= 0 || sum.ElapsedSeconds <= 0 {
		t.Fatalf("timing not recorded: %g runs/s in %gs", sum.RunsPerSec, sum.ElapsedSeconds)
	}
	if len(sum.Outcomes) != 8 {
		t.Fatalf("len(Outcomes) = %d", len(sum.Outcomes))
	}
}

// TestRunOffScheduleOnsetsRevealCollisions documents what the sweep is
// for: an attack that begins between challenge instants drives the
// controller with poisoned measurements until the next challenge, and the
// detection latency (4 and 18 steps here) is enough to cause collisions
// the paper's hand-picked onset-at-challenge scenarios never show.
func TestRunOffScheduleOnsetsRevealCollisions(t *testing.T) {
	sp := testSpec()
	sp.Onsets = []int{178, 185} // next challenges: 182 and 203
	sum, err := Run(context.Background(), sp, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	agg := sum.Aggregate
	if agg.Detected != 8 {
		t.Fatalf("Detected = %d, want 8", agg.Detected)
	}
	if agg.Latency.Max != 18 || agg.Latency.P50 != 11 {
		t.Fatalf("latency stats = %+v", agg.Latency)
	}
	// Even CRA's zero-FP/FN detection cannot undo the poisoned window.
	if agg.FalsePositives != 0 || agg.FalseNegatives != 0 {
		t.Fatalf("FP=%d FN=%d, want 0/0", agg.FalsePositives, agg.FalseNegatives)
	}
	if agg.Collisions == 0 || agg.WorstMinGapM >= 0 {
		t.Fatalf("off-schedule onsets should produce collisions: %+v", agg)
	}
}

func TestRunFastAdversaryCountsAsMissed(t *testing.T) {
	sp := Spec{Attacks: []string{AttackFastAdversary}, Onsets: []int{182}}
	sum, err := Run(context.Background(), sp, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Aggregate.Detected != 0 || sum.Aggregate.Missed != 1 {
		t.Fatalf("fast adversary should evade: %+v", sum.Aggregate)
	}
}

func TestRunProgressAndOutcomeDiscard(t *testing.T) {
	var calls []int
	sum, err := Run(context.Background(), testSpec(), Options{
		Workers:         3,
		DiscardOutcomes: true,
		OnOutcome: func(_ Outcome, st Stats) {
			calls = append(calls, st.Done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 8 || calls[len(calls)-1] != 8 {
		t.Fatalf("progress calls = %v", calls)
	}
	for i := 1; i < len(calls); i++ {
		if calls[i] != calls[i-1]+1 {
			t.Fatalf("progress not monotone: %v", calls)
		}
	}
	if sum.Outcomes != nil {
		t.Fatal("DiscardOutcomes should drop the outcome list")
	}
	if sum.Aggregate.Jobs != 8 {
		t.Fatalf("aggregate still required: %+v", sum.Aggregate)
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, testSpec(), Options{Workers: 2}); err == nil {
		t.Fatal("cancelled context should abort the campaign")
	}
}

func TestRunInvalidSpec(t *testing.T) {
	if _, err := Run(context.Background(), Spec{Attacks: []string{"nope"}}, Options{}); err == nil {
		t.Fatal("invalid spec should fail before running")
	}
}

func TestAggregateEmpty(t *testing.T) {
	agg := AggregateOutcomes(nil)
	if agg.Jobs != 0 || agg.WorstMinGapM != 0 || agg.Latency.N != 0 {
		t.Fatalf("empty aggregate = %+v", agg)
	}
}

// sprintfLabel is the fmt.Sprintf rendering Point.Label replaced; it is
// the reference the strconv label must match byte for byte. A DoS
// point without a positive JammerMW runs the paper's 100 mW jammer.
func sprintfLabel(p Point) string {
	sched := "paper"
	if sc := p.Schedule; sc.Kind != "" && sc.Kind != "paper" {
		sc = sc.withDefaults()
		sched = fmt.Sprintf("lfsr(w=%d,r=%d,s=%d)", sc.Width, sc.RegLen, sc.Seed)
	}
	l := fmt.Sprintf("%s/%s/%s", orDefault(p.Attack, AttackNone), orDefault(p.Leader, LeaderConst), sched)
	switch p.Attack {
	case AttackDoS:
		jam := p.JammerMW
		if !(jam > 0) {
			jam = 100
		}
		l += fmt.Sprintf("/onset=%d/jam=%gmW", p.Onset, jam)
	case AttackDelay, AttackFastAdversary:
		l += fmt.Sprintf("/onset=%d/off=%gm", p.Onset, p.OffsetM)
	}
	return l + fmt.Sprintf("/seed=%d", p.Seed)
}

func TestPointLabelMatchesSprintf(t *testing.T) {
	attacks := []string{"", AttackNone, AttackDoS, AttackDelay, AttackFastAdversary}
	leaders := []string{"", LeaderConst, LeaderPhased}
	schedules := []ScheduleSpec{
		{}, {Kind: "paper"}, {Kind: "lfsr"},
		{Kind: "lfsr", Width: 6, RegLen: 16, Seed: math.MaxUint32},
	}
	values := []float64{0, 100, 0.1, 6.5, 1e21, 1e-5, 1e20, 123456.789, -2.5,
		math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.NaN()}
	seeds := []int64{0, 1, -1, math.MaxInt64, math.MinInt64}
	onsets := []int{0, 182, -3}
	for _, a := range attacks {
		for _, l := range leaders {
			for _, sc := range schedules {
				for _, v := range values {
					for _, seed := range seeds {
						for _, k := range onsets {
							p := Point{Attack: a, Leader: l, Schedule: sc, Onset: k,
								OffsetM: v, JammerMW: v, Seed: seed}
							if got, want := p.Label(), sprintfLabel(p); got != want {
								t.Fatalf("Label(%+v) = %q, want %q", p, got, want)
							}
						}
					}
				}
			}
		}
	}
	p := Point{Attack: AttackDoS, Leader: LeaderConst, Onset: 182, JammerMW: 100, Seed: 1}
	if got := p.Label(); got != "dos/const/paper/onset=182/jam=100mW/seed=1" {
		t.Errorf("paper DoS label = %q", got)
	}
	if avg := testing.AllocsPerRun(100, func() { _ = p.Label() }); avg != 1 {
		t.Errorf("Label: %v allocs, want 1", avg)
	}
}

// TestCampaignJobAllocationCeiling bounds a campaign job's allocations,
// the run's own included, on the 64-job Fig 2 grid the campaign_w1 perf
// scenario sweeps (one worker, outcomes discarded). The ceiling is 40
// allocations per job.
func TestCampaignJobAllocationCeiling(t *testing.T) {
	const maxAllocsPerJob = 40
	spec := Spec{
		Steps:      301,
		BaseSeed:   42,
		Replicates: 16,
		Attacks:    []string{AttackDoS, AttackDelay},
		Onsets:     []int{175, 182},
	}
	jobs, err := spec.NumJobs()
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Workers: 1, DiscardOutcomes: true}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := Run(context.Background(), spec, opt); err != nil {
			t.Fatal(err)
		}
	})
	if perJob := avg / float64(jobs); perJob > maxAllocsPerJob {
		t.Errorf("campaign job: %.1f allocs/job, want <= %d", perJob, maxAllocsPerJob)
	}
}
