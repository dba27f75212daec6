package sim_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"testing"

	"safesense/internal/campaign"
	"safesense/internal/lateral"
	"safesense/internal/radar"
	"safesense/internal/report"
	"safesense/internal/sim"
	"safesense/internal/trace"
)

// goldenFingerprintFile pins the numerics of the paper's four figure
// scenarios, on the closed-form and on the signal-level pipeline. It is regenerated only with `go test ./internal/sim -run
// TestGoldenFingerprint -update`, and every regeneration is a reviewed
// diff: the match below is exact, with no tolerance, so any change to the
// order of floating-point operations anywhere in the closed loop shows.
var goldenFingerprintFile = filepath.Join("testdata", "golden_fingerprint.json")

// goldenSeeds is the fixed seed set every figure variant runs at.
var goldenSeeds = []int64{1, 2, 3, 5, 8}

// goldenLateralSeeds is the seed set of the lane-keeping runs.
var goldenLateralSeeds = []int64{1, 2, 3, 4, 5}

// goldenSignalSeeds is the seed set of the signal-level figure variants,
// which cost a sweep synthesis and a beat extraction per step.
var goldenSignalSeeds = []int64{1, 2, 3}

// goldenRun is one run's fingerprint: the scalar outcomes at full
// precision plus a SHA-256 over everything the run emits step by step.
type goldenRun struct {
	Name string `json:"name"`
	// Pipeline names the signal-level measurement chain as
	// "signal-<extractor>-<samples>"; it is empty for the closed form.
	Pipeline           string  `json:"pipeline,omitempty"`
	Seed               int64   `json:"seed"`
	DetectedAt         int     `json:"detected_at"`
	FalsePositives     int     `json:"false_positives"`
	FalseNegatives     int     `json:"false_negatives"`
	CollisionAt        int     `json:"collision_at"`
	MinGap             float64 `json:"min_gap"`
	EstimateSteps      int     `json:"estimate_steps"`
	EstimateDistRMSE   float64 `json:"estimate_dist_rmse"`
	EstimateVelRMSE    float64 `json:"estimate_vel_rmse"`
	EstimateDistMaxErr float64 `json:"estimate_dist_max_err"`
	EstimateVelMaxErr  float64 `json:"estimate_vel_max_err"`
	FinalFollowerSpeed float64 `json:"final_follower_speed"`
	FinalGap           float64 `json:"final_gap"`
	// StepsSHA256 hashes every trace series, the CRA event log and the
	// flight timeline, bit for bit.
	StepsSHA256 string `json:"steps_sha256"`
}

type goldenFingerprint struct {
	// NumericsVersion is the sim.NumericsVersion the file was generated
	// under; TestGoldenFingerprint refuses a file from another version.
	NumericsVersion int         `json:"numerics_version"`
	Runs            []goldenRun `json:"runs"`
	// BeatAblation holds the rows of EXPERIMENTS.md's A3 table
	// (report.BeatAblation(16)): FFT vs root-MUSIC over 64/256 samples
	// and 20/100/180 m.
	BeatAblation []goldenBeatRow `json:"beat_ablation"`
	// EstimatorAblation holds the rows of EXPERIMENTS.md's A1 table
	// (report.EstimatorAblation), the one user of PairPredictor.
	EstimatorAblation []goldenEstimatorRow `json:"estimator_ablation"`
	// DetectorAblation holds the rows of EXPERIMENTS.md's A2 table
	// (report.DetectorAblation): CRA latency at four challenge rates and
	// the chi-square residual detector's latencies and clean-run alarms.
	DetectorAblation []goldenDetectorRow `json:"detector_ablation"`
	// Lateral holds lateral.DefaultScenario at goldenLateralSeeds: the
	// lane-keeping loop runs two bare Predictors.
	Lateral []goldenLateralRun `json:"lateral"`
	// CampaignAggregateSHA256 hashes the aggregate JSON of
	// goldenCampaignSpec, which adds the phased leader, off-schedule
	// onsets and the fast adversary to the figure points above.
	CampaignAggregateSHA256 string `json:"campaign_aggregate_sha256"`
}

// goldenBeatRow is one A3 row at full precision.
type goldenBeatRow struct {
	Extractor string  `json:"extractor"`
	Samples   int     `json:"samples"`
	Distance  float64 `json:"distance"`
	DistRMSE  float64 `json:"dist_rmse"`
	VelRMSE   float64 `json:"vel_rmse"`
}

// goldenEstimatorRow is one A1 row. The RMSEs go in as hex bit patterns
// because a diverged row may hold an infinity or a NaN, which JSON cannot
// carry as a number.
type goldenEstimatorRow struct {
	Estimator    string `json:"estimator"`
	DistRMSEBits string `json:"dist_rmse_bits"`
	VelRMSEBits  string `json:"vel_rmse_bits"`
	Diverged     bool   `json:"diverged"`
}

// goldenDetectorRow is one A2 row.
type goldenDetectorRow struct {
	Detector     string `json:"detector"`
	LatencyDoS   int    `json:"latency_dos"`
	LatencyDelay int    `json:"latency_delay"`
	FPClean      int    `json:"fp_clean"`
}

// goldenLateralRun is one lane-keeping run's outcome plus a SHA-256 over
// its offset series.
type goldenLateralRun struct {
	Seed         int64   `json:"seed"`
	DetectedAt   int     `json:"detected_at"`
	MaxAbsEy     float64 `json:"max_abs_ey"`
	DepartedAt   int     `json:"departed_at"`
	OffsetSHA256 string  `json:"offset_sha256"`
}

func goldenCampaignSpec() campaign.Spec {
	return campaign.Spec{
		Name:           "golden",
		BaseSeed:       11,
		Replicates:     2,
		Attacks:        []string{campaign.AttackDoS, campaign.AttackDelay, campaign.AttackFastAdversary, campaign.AttackNone},
		Leaders:        []string{campaign.LeaderConst, campaign.LeaderPhased},
		Onsets:         []int{175, 182},
		JammerPowersMW: []float64{10, 100},
	}
}

func fingerprint(t *testing.T) goldenFingerprint {
	t.Helper()
	figures := []sim.Scenario{sim.Fig2aDoS(), sim.Fig2bDelay(), sim.Fig3aDoS(), sim.Fig3bDelay()}
	fp := goldenFingerprint{NumericsVersion: sim.NumericsVersion}
	add := func(s sim.Scenario, pipeline string) {
		res, err := sim.Run(s)
		if err != nil {
			t.Fatalf("%s %s seed %d: %v", s.Name, pipeline, s.Seed, err)
		}
		fp.Runs = append(fp.Runs, goldenRun{
			Name:               s.Name,
			Pipeline:           pipeline,
			Seed:               s.Seed,
			DetectedAt:         res.DetectedAt,
			FalsePositives:     res.Accuracy.FalsePositives,
			FalseNegatives:     res.Accuracy.FalseNegatives,
			CollisionAt:        res.CollisionAt,
			MinGap:             res.MinGap,
			EstimateSteps:      res.EstimateSteps,
			EstimateDistRMSE:   res.EstimateDistRMSE,
			EstimateVelRMSE:    res.EstimateVelRMSE,
			EstimateDistMaxErr: res.EstimateDistMaxErr,
			EstimateVelMaxErr:  res.EstimateVelMaxErr,
			FinalFollowerSpeed: res.FinalFollowerSpeed,
			FinalGap:           res.FinalGap,
			StepsSHA256:        stepsHash(res),
		})
	}
	for _, fig := range figures {
		for _, s := range []sim.Scenario{fig, sim.Baseline(fig), sim.Undefended(fig)} {
			for _, seed := range goldenSeeds {
				s.Seed = seed
				add(s, "")
			}
		}
	}
	// Signal level at the defaults: 128 samples per segment, FFT.
	for _, fig := range figures {
		for _, s := range []sim.Scenario{fig, sim.Baseline(fig), sim.Undefended(fig)} {
			s.SignalLevel = true
			for _, seed := range goldenSignalSeeds {
				s.Seed = seed
				add(s, "signal-fft-128")
			}
		}
	}
	long := sim.Fig2aDoS()
	long.Seed, long.SignalLevel, long.SignalSamples = 1, true, 256
	add(long, "signal-fft-256")
	music := sim.Fig2aDoS()
	music.Seed, music.SignalLevel, music.Extractor = 1, true, radar.MUSICExtractor{}
	add(music, "signal-root-music-128")
	sum, err := campaign.Run(context.Background(), goldenCampaignSpec(), campaign.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := json.Marshal(sum.Aggregate)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(agg)
	fp.CampaignAggregateSHA256 = hex.EncodeToString(h[:])
	rows, err := report.BeatAblation(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		fp.BeatAblation = append(fp.BeatAblation, goldenBeatRow{
			Extractor: r.Extractor,
			Samples:   r.Samples,
			Distance:  r.Distance,
			DistRMSE:  r.DistRMSE,
			VelRMSE:   r.VelRMSE,
		})
	}
	a1, err := report.EstimatorAblation()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range a1 {
		fp.EstimatorAblation = append(fp.EstimatorAblation, goldenEstimatorRow{
			Estimator:    r.Estimator,
			DistRMSEBits: fmt.Sprintf("%016x", math.Float64bits(r.DistRMSE)),
			VelRMSEBits:  fmt.Sprintf("%016x", math.Float64bits(r.VelRMSE)),
			Diverged:     r.Diverged,
		})
	}
	a2, err := report.DetectorAblation()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range a2 {
		fp.DetectorAblation = append(fp.DetectorAblation, goldenDetectorRow(r))
	}
	for _, seed := range goldenLateralSeeds {
		s := lateral.DefaultScenario()
		s.Seed = seed
		res, err := lateral.Run(s)
		if err != nil {
			t.Fatalf("lateral seed %d: %v", seed, err)
		}
		h := sha256.New()
		hashSet(h, res.Offset)
		fp.Lateral = append(fp.Lateral, goldenLateralRun{
			Seed:         seed,
			DetectedAt:   res.DetectedAt,
			MaxAbsEy:     res.MaxAbsEy,
			DepartedAt:   res.DepartedAt,
			OffsetSHA256: hex.EncodeToString(h.Sum(nil)),
		})
	}
	return fp
}

// stepsHash digests the run's per-step output. Floats go in as their bit
// patterns so a difference in the last ulp (or in the sign of a zero)
// changes the hash.
func stepsHash(res *sim.Result) string {
	h := sha256.New()
	for _, set := range []*trace.Set{res.Distance, res.Velocity, res.Speeds} {
		hashSet(h, set)
	}
	for _, ev := range res.Events {
		fmt.Fprintf(h, "event %d %t %d %t %t\n", ev.K, ev.Challenged, ev.State, ev.Detected, ev.ClearedNow)
	}
	for _, ev := range res.Flight {
		fmt.Fprintf(h, "flight %d %s %x %q\n", ev.K, ev.Kind, math.Float64bits(ev.Value), ev.Detail)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashSet feeds every series of set into h, values as bit patterns.
func hashSet(h hash.Hash, set *trace.Set) {
	for _, name := range set.Names() {
		s := set.Series(name)
		fmt.Fprintf(h, "series %s %d\n", name, s.Len())
		for i, k := range s.T {
			writeWords(h, uint64(k), math.Float64bits(s.Y[i]))
		}
	}
}

func writeWords(h hash.Hash, words ...uint64) {
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
}

// TestGoldenFingerprint is the numeric oracle: Fig 2a/2b/3a/3b, each
// defended, no-attack baseline and undefended, over goldenSeeds on the
// closed form and over goldenSignalSeeds at signal level (plus a 256-sample
// and a root-MUSIC Fig 2a run), a small campaign grid, the A3 extractor
// table, the A1 estimator and A2 detector tables and the lane-keeping runs
// must reproduce the checked-in fingerprint exactly.
func TestGoldenFingerprint(t *testing.T) {
	got, err := json.MarshalIndent(fingerprint(t), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	// The -update flag is declared by the package's internal tests,
	// which share this test binary.
	if f := flag.Lookup("update"); f != nil && f.Value.String() == "true" {
		if err := os.WriteFile(goldenFingerprintFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenFingerprintFile)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	var wantFP goldenFingerprint
	if err := json.Unmarshal(want, &wantFP); err != nil {
		t.Fatalf("decode %s: %v", goldenFingerprintFile, err)
	}
	if wantFP.NumericsVersion != sim.NumericsVersion {
		t.Fatalf("%s is stamped numerics version %d, sim.NumericsVersion is %d: a numerics change regenerates the file with -update",
			goldenFingerprintFile, wantFP.NumericsVersion, sim.NumericsVersion)
	}
	if bytes.Equal(got, want) {
		return
	}
	var gotFP goldenFingerprint
	if err := json.Unmarshal(got, &gotFP); err != nil {
		t.Fatal(err)
	}
	if len(gotFP.Runs) != len(wantFP.Runs) {
		t.Fatalf("fingerprint has %d runs, golden %d", len(gotFP.Runs), len(wantFP.Runs))
	}
	for i, g := range gotFP.Runs {
		if w := wantFP.Runs[i]; g != w {
			t.Errorf("%s %s seed %d drifted:\n got  %+v\n want %+v", w.Name, w.Pipeline, w.Seed, g, w)
		}
	}
	if gotFP.CampaignAggregateSHA256 != wantFP.CampaignAggregateSHA256 {
		t.Errorf("campaign aggregate hash %s, golden %s",
			gotFP.CampaignAggregateSHA256, wantFP.CampaignAggregateSHA256)
	}
	t.Errorf("fingerprint differs from %s (run with -update to regenerate after review)", goldenFingerprintFile)
}
