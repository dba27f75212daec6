// Package suite defines the repo's registered perf scenarios: the four
// figure-level closed-loop runs and their signal-level Fig 2a/2b
// counterparts, the hot kernels, and campaign throughput at the worker
// counts the machine has CPUs for. Both `safesense-perf` and the
// root-package benchmarks (bench_test.go) drive this one registry, so
// BENCH documents and `go test -bench` measure identical workloads.
//
// Every scenario is seeded at registration: a body produces the same
// domain results on every call, and bodies double as correctness checks
// (a perf sample from a wrong-answer run aborts the capture).
package suite

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"safesense/internal/campaign"
	"safesense/internal/cra"
	"safesense/internal/dsp/fft"
	"safesense/internal/dsp/music"
	"safesense/internal/estimate"
	"safesense/internal/noise"
	"safesense/internal/perf"
	"safesense/internal/prbs"
	"safesense/internal/radar"
	"safesense/internal/sim"
)

// Scenario groups.
const (
	GroupFigure   = "figure"
	GroupKernel   = "kernel"
	GroupCampaign = "campaign"
)

// Deterministic observation names bodies record (beyond timing, which
// the runner measures itself). ObsDetectedAt and ObsDetected feed the
// suite determinism test; ObsRunsPerSec is advisory throughput.
const (
	ObsDetectedAt = "detected_at"
	ObsDetected   = "detected"
	ObsRunsPerSec = "runs_per_sec"
)

// paperDetectionStep is the step every figure scenario detects its
// attack at (the paper's k = 182 challenge instant).
const paperDetectionStep = 182

// Default builds the full scenario registry.
func Default() *perf.Registry {
	g := perf.NewRegistry()
	registerFigures(g)
	registerKernels(g)
	registerCampaigns(g, runtime.NumCPU())
	return g
}

// figureScenario wraps one closed-loop defended run: the body executes
// the full simulation under ctx, verifies the paper's detection step,
// and reports the per-phase timing breakdown (none below sim.Timed).
func figureScenario(ctx context.Context, name, doc string, mk func() sim.Scenario) perf.Scenario {
	return perf.Scenario{
		Name:  name,
		Group: GroupFigure,
		Doc:   doc,
		Ops:   1,
		Setup: func() (func(r *perf.Rep) error, error) {
			s := mk()
			return func(r *perf.Rep) error {
				res, err := sim.RunContext(ctx, s)
				if err != nil {
					return err
				}
				if res.DetectedAt != paperDetectionStep {
					return fmt.Errorf("DetectedAt = %d, want %d", res.DetectedAt, paperDetectionStep)
				}
				r.Observe(ObsDetectedAt, float64(res.DetectedAt))
				for _, p := range res.Phases {
					if p.Calls > 0 {
						r.Observe("phase_"+p.Phase+"_seconds", p.Seconds)
					}
				}
				return nil
			}, nil
		},
	}
}

func registerFigures(g *perf.Registry) {
	ctx := context.Background()
	g.MustRegister(figureScenario(ctx, "fig2a_dos",
		"Figure 2a: DoS attack, constant-deceleration leader, defended.", sim.Fig2aDoS))
	// The same run at sim.Summary detail, as every campaign job runs: the
	// paired delta against fig2a_dos is the cost of phase timing, series
	// and the event log. The name predates the detail levels and is kept
	// so the trajectory compares across captures.
	g.MustRegister(figureScenario(sim.WithDetail(ctx, sim.Summary), "fig2a_dos_untimed",
		"Figure 2a at sim.Summary detail (no phase timing, series or event log), as campaign jobs run.", sim.Fig2aDoS))
	g.MustRegister(figureScenario(ctx, "fig2b_delay",
		"Figure 2b: delay attack, constant-deceleration leader, defended.", sim.Fig2bDelay))
	g.MustRegister(figureScenario(ctx, "fig3a_dos",
		"Figure 3a: DoS attack, decelerate-then-accelerate leader, defended.", sim.Fig3aDoS))
	g.MustRegister(figureScenario(ctx, "fig3b_delay",
		"Figure 3b: delay attack, decelerate-then-accelerate leader, defended.", sim.Fig3bDelay))
	g.MustRegister(figureScenario(ctx, "s1_signal_dos",
		"Figure 2a at signal level (S1): DoS jamming of the synthesized sweeps, FFT beat extraction.",
		signalLevel(sim.Fig2aDoS)))
	g.MustRegister(figureScenario(ctx, "s1_signal_delay",
		"Figure 2b at signal level (S1): delay spoofing of the synthesized sweeps, FFT beat extraction.",
		signalLevel(sim.Fig2bDelay)))
}

// signalLevel switches a figure scenario to the signal-level radar.
func signalLevel(mk func() sim.Scenario) func() sim.Scenario {
	return func() sim.Scenario {
		s := mk()
		s.SignalLevel = true
		return s
	}
}

func registerKernels(g *perf.Registry) {
	g.MustRegister(perf.Scenario{
		Name:  "kernel_root_music_256",
		Group: GroupKernel,
		Doc:   "Root-MUSIC frequency extraction from one 256-sample beat sweep.",
		Ops:   1,
		Setup: func() (func(r *perf.Rep) error, error) {
			est, err := music.New(music.Config{Order: 12, NumSignals: 1})
			if err != nil {
				return nil, err
			}
			sweep, err := radar.BoschLRR2().SynthesizeSweep(100, -1.5, 256, noise.NewSource(2))
			if err != nil {
				return nil, err
			}
			return func(*perf.Rep) error {
				_, err := est.Frequencies(sweep.Up)
				return err
			}, nil
		},
	})

	g.MustRegister(perf.Scenario{
		Name:  "kernel_noise_seed",
		Group: GroupKernel,
		Doc: "One noise.NewSource plus its first draw: the seeding every closed-loop run " +
			"pays, checked against math/rand's first draw for the seed.",
		Ops: 1,
		Setup: func() (func(r *perf.Rep) error, error) {
			const seed = 42
			want := rand.New(rand.NewSource(seed)).NormFloat64()
			return func(*perf.Rep) error {
				if got := noise.NewSource(seed).Gaussian(0, 1); got != want {
					return fmt.Errorf("first draw %v, math/rand draws %v", got, want)
				}
				return nil
			}, nil
		},
	})

	g.MustRegister(perf.Scenario{
		Name:  "kernel_fft_1024",
		Group: GroupKernel,
		Doc:   "Radix FFT over 1024 complex samples.",
		Ops:   1,
		Setup: func() (func(r *perf.Rep) error, error) {
			x := noise.NewSource(3).ComplexNoiseVec(1024, 1)
			return func(*perf.Rep) error {
				fft.Forward(x)
				return nil
			}, nil
		},
	})

	g.MustRegister(perf.Scenario{
		Name:  "kernel_recovery_estimator",
		Group: GroupKernel,
		Doc: "RecoveryEstimator at DefaultPredictorConfig over one Fig 2a-shaped run: " +
			"182 trusted Observe steps, then 119 free-run Predict steps.",
		Ops: recoverySteps,
		Setup: func() (func(r *perf.Rep) error, error) {
			fresh, err := estimate.NewRecoveryEstimator(estimate.DefaultPredictorConfig())
			if err != nil {
				return nil, err
			}
			// A closing gap at a constant rate, measured with closed-form
			// radar noise at ~100 m, seen from a follower at 29 m/s.
			const vF, dv = 29.0, -0.25
			src := noise.NewSource(1)
			d := make([]float64, recoveryOnset)
			v := make([]float64, recoveryOnset)
			for k := range d {
				d[k] = src.Gaussian(100+dv*float64(k), 0.5)
				v[k] = src.Gaussian(dv, 0.12)
			}
			return func(*perf.Rep) error {
				est := fresh.Clone()
				for k := range d {
					if err := est.Observe(d[k], v[k], vF); err != nil {
						return err
					}
				}
				var estD float64
				for k := recoveryOnset; k < recoverySteps; k++ {
					estD, _ = est.Predict(vF)
				}
				if truth := 100 + dv*float64(recoverySteps-1); math.Abs(estD-truth) > 5 {
					return fmt.Errorf("final estimate %.2f m, truth %.2f m", estD, truth)
				}
				return nil
			}, nil
		},
	})

	g.MustRegister(perf.Scenario{
		Name:  "kernel_cra_check",
		Group: GroupKernel,
		Doc:   "One challenge-response authentication detector step.",
		Ops:   1,
		Setup: func() (func(r *perf.Rep) error, error) {
			det, err := cra.NewDetector(prbs.PaperFigureSchedule(), 1e-13)
			if err != nil {
				return nil, err
			}
			m := radar.Measurement{K: 20, Power: 1e-11}
			return func(*perf.Rep) error {
				det.Step(m)
				return nil
			}, nil
		},
	})

	g.MustRegister(perf.Scenario{
		Name:  "kernel_synthesize_sweep",
		Group: GroupKernel,
		Doc:   "Synthesize one 256-sample FMCW radar sweep pair.",
		Ops:   1,
		Setup: func() (func(r *perf.Rep) error, error) {
			p := radar.BoschLRR2()
			src := noise.NewSource(4)
			return func(*perf.Rep) error {
				_, err := p.SynthesizeSweep(100, -1.5, 256, src)
				return err
			}, nil
		},
	})

	g.MustRegister(perf.Scenario{
		Name:  "kernel_beat_extract_128",
		Group: GroupKernel,
		Doc: "SignalFrontEnd.Measure alone on one fixed 128-sample sweep pair (target at 100 m): " +
			"sweep power plus FFT beat extraction, timed apart from synthesis.",
		Ops: 1,
		Setup: func() (func(r *perf.Rep) error, error) {
			sfe, err := radar.NewSignalFrontEnd(radar.BoschLRR2(), prbs.NewFixedSchedule(),
				radar.FFTExtractor{}, 128, noise.NewSource(6))
			if err != nil {
				return nil, err
			}
			s, challenge := sfe.ObserveSweep(1, 100, -1.5)
			return func(*perf.Rep) error {
				if m := sfe.Measure(1, s, challenge); math.Abs(m.Distance-100) > 3 {
					return fmt.Errorf("measured %.2f m, truth 100 m", m.Distance)
				}
				return nil
			}, nil
		},
	})

	g.MustRegister(perf.Scenario{
		Name:  "kernel_signal_measure",
		Group: GroupKernel,
		Doc: "One signal-level radar step: SignalFrontEnd.ObserveSweep + Measure " +
			"at 128 samples per segment with the FFT extractor, target at 100 m.",
		Ops: 1,
		Setup: func() (func(r *perf.Rep) error, error) {
			sfe, err := radar.NewSignalFrontEnd(radar.BoschLRR2(), prbs.NewFixedSchedule(),
				radar.FFTExtractor{}, 128, noise.NewSource(5))
			if err != nil {
				return nil, err
			}
			return func(*perf.Rep) error {
				s, challenge := sfe.ObserveSweep(1, 100, -1.5)
				if m := sfe.Measure(1, s, challenge); math.Abs(m.Distance-100) > 3 {
					return fmt.Errorf("measured %.2f m, truth 100 m", m.Distance)
				}
				return nil
			}, nil
		},
	})
}

// recoveryOnset and recoverySteps shape the recovery-estimator kernel
// like the paper's Fig 2a run: attack detected at k = 182 of 301 steps.
const (
	recoveryOnset = 182
	recoverySteps = 301
)

// campaignSpec is the 64-job Figure 2a/2b grid the throughput scenarios
// sweep: DoS + delay attacks x 2 onsets x 16 seeds.
func campaignSpec() campaign.Spec {
	return campaign.Spec{
		Name:       "bench-fig2-grid",
		Steps:      301,
		BaseSeed:   42,
		Replicates: 16,
		Attacks:    []string{campaign.AttackDoS, campaign.AttackDelay},
		Onsets:     []int{175, 182},
	}
}

// CampaignJobs is the grid size of the campaign throughput scenarios.
const CampaignJobs = 64

// registerCampaigns registers campaign_wN for N = 1, 2, 4 and 8 up to
// cpus. A pool wider than the machine measures scheduler contention,
// not the engine, so those scenarios are left out; perf.Compare reports a
// baseline scenario missing from the new run as "only in old run".
func registerCampaigns(g *perf.Registry, cpus int) {
	for _, workers := range []int{1, 2, 4, 8} {
		if workers > cpus {
			break
		}
		workers := workers
		g.MustRegister(perf.Scenario{
			Name:  fmt.Sprintf("campaign_w%d", workers),
			Group: GroupCampaign,
			Doc: fmt.Sprintf(
				"64-job Monte Carlo sweep over the Fig 2 grid, worker pool of %d.", workers),
			Ops: CampaignJobs,
			Setup: func() (func(r *perf.Rep) error, error) {
				spec := campaignSpec()
				jobs, err := spec.NumJobs()
				if err != nil {
					return nil, err
				}
				if jobs != CampaignJobs {
					return nil, fmt.Errorf("grid size = %d, want %d", jobs, CampaignJobs)
				}
				return func(r *perf.Rep) error {
					sum, err := campaign.Run(context.Background(), spec,
						campaign.Options{Workers: workers, DiscardOutcomes: true})
					if err != nil {
						return err
					}
					agg := sum.Aggregate
					if agg.Detected != CampaignJobs || agg.FalsePositives != 0 {
						return fmt.Errorf("aggregate drifted: detected=%d fp=%d",
							agg.Detected, agg.FalsePositives)
					}
					r.Observe(ObsDetected, float64(agg.Detected))
					r.Observe(ObsRunsPerSec, sum.RunsPerSec)
					return nil
				}, nil
			},
		})
	}
}
