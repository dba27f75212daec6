package safesense

// Benchmark harness: one benchmark per reproduced table/figure (see the
// experiment index in DESIGN.md) plus microbenchmarks of the hot kernels.
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// The figure, kernel, and campaign benchmarks drive the shared scenario
// registry in internal/perf/suite — the same workloads `safesense-perf
// run` captures into BENCH_*.json — so testing.B numbers and the perf
// trajectory always measure identical code paths with identical seeds.

import (
	"fmt"
	"testing"

	"safesense/internal/attack"
	"safesense/internal/estimate"
	"safesense/internal/lateral"
	"safesense/internal/noise"
	"safesense/internal/perf"
	"safesense/internal/perf/suite"
	"safesense/internal/radar"
	"safesense/internal/report"
	"safesense/internal/sim"
)

// perfSuite is the shared scenario registry the registry-backed
// benchmarks below resolve against.
var perfSuite = suite.Default()

// benchSuiteScenario runs one registered perf scenario under testing.B:
// fresh Setup outside the timer, the scenario body inside it, per-op
// scaling via the scenario's own Ops count.
func benchSuiteScenario(b *testing.B, name string) {
	b.Helper()
	s, ok := perfSuite.Lookup(name)
	if !ok {
		b.Fatalf("no registered perf scenario %q", name)
	}
	body, err := s.Setup()
	if err != nil {
		b.Fatal(err)
	}
	rep := perf.NewRep()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := body(rep); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if s.Ops > 1 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.Ops), "ns/logical-op")
	}
}

// --- Figures 2a/2b/3a/3b: one full closed-loop defended run each -------

func BenchmarkFig2aDoSConstantDecel(b *testing.B)   { benchSuiteScenario(b, "fig2a_dos") }
func BenchmarkFig2bDelayConstantDecel(b *testing.B) { benchSuiteScenario(b, "fig2b_delay") }
func BenchmarkFig3aDoSDecelAccel(b *testing.B)      { benchSuiteScenario(b, "fig3a_dos") }
func BenchmarkFig3bDelayDecelAccel(b *testing.B)    { benchSuiteScenario(b, "fig3b_delay") }

// --- T1: the Section 6.2 results — RLS cost over the attack window -----
//
// The paper reports 1.2e7 ns (DoS) and 1.3e7 ns (delay) for estimating the
// k = 182..300 window in MATLAB. These benchmarks measure the same work in
// this implementation: training the two-channel recovery estimator on the
// pre-attack stream and free-running it across the 119-step window.

func benchRLSAttackWindow(b *testing.B, s sim.Scenario) {
	b.Helper()
	// Pre-generate the training stream once (not measured).
	base, err := sim.Run(sim.Baseline(s))
	if err != nil {
		b.Fatal(err)
	}
	dMeas := base.Distance.Series(sim.SeriesMeasured)
	vMeas := base.Velocity.Series(sim.SeriesMeasured)
	vF := base.Speeds.Series(sim.SeriesFollower)
	sched := s.Schedule
	onset := s.Attack.Window.Start
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := estimate.NewRecoveryEstimator(estimate.DefaultPredictorConfig())
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < onset; k++ {
			if sched.Challenge(k) {
				rec.SkipStep()
				continue
			}
			d, _ := dMeas.At(k)
			v, _ := vMeas.At(k)
			f, _ := vF.At(k)
			if err := rec.Observe(d, v, f); err != nil {
				b.Fatal(err)
			}
		}
		for k := onset; k < s.Steps; k++ {
			f, _ := vF.At(k)
			rec.Predict(f)
		}
	}
}

func BenchmarkT1RLSAttackWindowDoS(b *testing.B)   { benchRLSAttackWindow(b, sim.Fig2aDoS()) }
func BenchmarkT1RLSAttackWindowDelay(b *testing.B) { benchRLSAttackWindow(b, sim.Fig2bDelay()) }

// --- E1: the Eqn 11 jamming power-ratio sweep ---------------------------

func BenchmarkE1JammerSweep(b *testing.B) {
	p := radar.BoschLRR2()
	j := attack.PaperJammer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := report.JammerSweep(p, j, 21)
		if len(rows) != 21 {
			b.Fatal("sweep size")
		}
	}
}

// --- A1/A2/A3: the DESIGN.md ablations ----------------------------------

func BenchmarkA1EstimatorAblation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := report.EstimatorAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkA2DetectorAblation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := report.DetectorAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkA3BeatExtraction(b *testing.B) {
	p := radar.BoschLRR2()
	for _, ext := range []radar.BeatExtractor{radar.FFTExtractor{}, radar.MUSICExtractor{}} {
		b.Run(ext.Name(), func(b *testing.B) {
			src := noise.NewSource(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := p.MeasureSweep(100, -1.5, 256, ext, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkA4ChallengeRateSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := report.ChallengeRateSweep([]int64{1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkA5LimitationDemo(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := report.LimitationDemo()
		if err != nil {
			b.Fatal(err)
		}
		if rows[1].DetectedAt != -1 {
			b.Fatal("limitation did not hold")
		}
	}
}

// --- S1: the Fig 2a and 2b scenarios through the signal-level pipeline --

func BenchmarkS1SignalPipeline(b *testing.B)      { benchSuiteScenario(b, "s1_signal_dos") }
func BenchmarkS1SignalPipelineDelay(b *testing.B) { benchSuiteScenario(b, "s1_signal_delay") }

// --- Extension benchmarks ------------------------------------------------

func BenchmarkLaneKeepingRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := lateral.Run(lateral.DefaultScenario())
		if err != nil {
			b.Fatal(err)
		}
		if res.DetectedAt < 0 {
			b.Fatal("lane spoof not detected")
		}
	}
}

// --- Campaign engine: Monte Carlo sweep throughput -----------------------
//
// One iteration executes a 64-job sweep over the Figure 2a/2b grid (DoS +
// delay × 2 onsets × 16 seeds). The workers sub-benchmarks establish the
// worker-pool scaling curve; runs/s is the service-level throughput metric
// safesensed reports per campaign. On n cores the speedup tracks
// min(workers, n) until the jobs run out; worker counts above the CPU
// count are not registered and skip.

func BenchmarkCampaignThroughput(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			name := fmt.Sprintf("campaign_w%d", workers)
			if _, ok := perfSuite.Lookup(name); !ok {
				b.Skipf("%s not registered: more workers than CPUs", name)
			}
			benchSuiteScenario(b, name)
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(suite.CampaignJobs*b.N)/sec, "runs/s")
			}
		})
	}
}

// --- Kernel microbenchmarks ---------------------------------------------
//
// Each resolves the registered suite scenario of the same workload; the
// recovery-estimator benchmark's reported ns/op covers a full 301-step
// run (see the scenario's Ops and the ns/logical-op metric for per-step
// cost).

func BenchmarkRecoveryEstimator(b *testing.B) { benchSuiteScenario(b, "kernel_recovery_estimator") }
func BenchmarkDetectorStep(b *testing.B)      { benchSuiteScenario(b, "kernel_cra_check") }
func BenchmarkRootMUSIC256(b *testing.B)      { benchSuiteScenario(b, "kernel_root_music_256") }
func BenchmarkFFT1024(b *testing.B)           { benchSuiteScenario(b, "kernel_fft_1024") }
func BenchmarkNoiseSeed(b *testing.B)         { benchSuiteScenario(b, "kernel_noise_seed") }
func BenchmarkSynthesizeSweep(b *testing.B)   { benchSuiteScenario(b, "kernel_synthesize_sweep") }
func BenchmarkBeatExtract128(b *testing.B)    { benchSuiteScenario(b, "kernel_beat_extract_128") }
func BenchmarkSignalMeasure(b *testing.B)     { benchSuiteScenario(b, "kernel_signal_measure") }
