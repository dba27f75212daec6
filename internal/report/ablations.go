package report

import (
	"fmt"
	"math"
	"strings"

	"safesense/internal/baseline"
	"safesense/internal/estimate"
	"safesense/internal/noise"
	"safesense/internal/prbs"
	"safesense/internal/radar"
	"safesense/internal/sim"
	"safesense/internal/stats"
)

// EstimatorRow is one row of ablation A1: how well each estimator family
// predicts the radar channels over the paper's attack window when trained
// only on pre-attack data.
type EstimatorRow struct {
	Estimator string
	DistRMSE  float64
	VelRMSE   float64
	Diverged  bool // prediction left the plausible envelope (|d| > 1 km)
}

// EstimatorAblation trains each candidate on the clean Figure 2a
// measurement stream up to the attack onset and free-runs it over the
// attack window, scoring against ground truth. It isolates the estimator
// choice from the closed loop: every candidate sees the identical stream.
func EstimatorAblation() ([]EstimatorRow, error) {
	base, err := sim.Run(sim.Baseline(sim.Fig2aDoS()))
	if err != nil {
		return nil, err
	}
	onset := 182
	dMeas := base.Distance.Series(sim.SeriesMeasured)
	vMeas := base.Velocity.Series(sim.SeriesMeasured)
	dTrue := base.Distance.Series(sim.SeriesTrue)
	vTrue := base.Velocity.Series(sim.SeriesTrue)
	vF := base.Speeds.Series(sim.SeriesFollower)
	sched := sim.Fig2aDoS().Schedule

	horizon := base.Scenario.Steps
	var rows []EstimatorRow

	score := func(name string, predD, predV []float64) {
		var td, tv []float64
		for k := onset; k < horizon; k++ {
			d, _ := dTrue.At(k)
			v, _ := vTrue.At(k)
			td = append(td, d)
			tv = append(tv, v)
		}
		dr, _ := stats.RMSE(predD, td)
		vr, _ := stats.RMSE(predV, tv)
		diverged := false
		for _, v := range predD {
			if math.Abs(v) > 1000 {
				diverged = true
				break
			}
		}
		rows = append(rows, EstimatorRow{Estimator: name, DistRMSE: dr, VelRMSE: vr, Diverged: diverged})
	}

	// 1. The paper's pipeline: RLS trend + kinematic integration.
	rec, err := estimate.NewRecoveryEstimator(estimate.DefaultPredictorConfig())
	if err != nil {
		return nil, err
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
			return nil, err
		}
	}
	var pd, pv []float64
	for k := onset; k < horizon; k++ {
		f, _ := vF.At(k)
		d, v := rec.Predict(f)
		pd = append(pd, d)
		pv = append(pv, v)
	}
	score("rls-recovery (paper)", pd, pv)

	// 2. Pure RLS trend extrapolation of both channels (no kinematics).
	pair, err := estimate.NewPairPredictor(estimate.DefaultPredictorConfig())
	if err != nil {
		return nil, err
	}
	for k := 0; k < onset; k++ {
		if sched.Challenge(k) {
			pair.Distance.SkipStep()
			pair.Velocity.SkipStep()
			continue
		}
		d, _ := dMeas.At(k)
		v, _ := vMeas.At(k)
		if err := pair.Observe(d, v); err != nil {
			return nil, err
		}
	}
	pd, pv = nil, nil
	for k := onset; k < horizon; k++ {
		d, v := pair.Predict()
		pd = append(pd, d)
		pv = append(pv, v)
	}
	score("rls-trend", pd, pv)

	// 3. Constant-velocity Kalman on the distance channel, predict-only
	// through the attack; velocity prediction is the filter's rate state.
	kf, err := baseline.NewConstantVelocityKalman(0.02, 0.25, 100)
	if err != nil {
		return nil, err
	}
	for k := 0; k < onset; k++ {
		if sched.Challenge(k) {
			kf.Predict()
			continue
		}
		d, _ := dMeas.At(k)
		kf.Update(d)
	}
	pd, pv = nil, nil
	for k := onset; k < horizon; k++ {
		kf.Predict()
		x := kf.State()
		pd = append(pd, math.Max(0, x[0]))
		pv = append(pv, x[1])
	}
	score("kalman-cv", pd, pv)

	// 4. Normalized LMS with an autoregressive regressor — the cheap
	// adaptive filter. Its free-run feeds predictions back through noisy
	// AR weights whose roots stray outside the unit circle; divergence
	// over the 2-minute window is the expected finding.
	const arOrder = 4
	lmsD, err := baseline.NewLMS(arOrder+1, 0.5)
	if err != nil {
		return nil, err
	}
	lmsV, err := baseline.NewLMS(arOrder+1, 0.5)
	if err != nil {
		return nil, err
	}
	histD := make([]float64, 0, horizon)
	histV := make([]float64, 0, horizon)
	reg := func(hist []float64) []float64 {
		h := make([]float64, arOrder+1)
		for i := 0; i < arOrder; i++ {
			h[i] = hist[len(hist)-1-i]
		}
		h[arOrder] = 1
		return h
	}
	for k := 0; k < onset; k++ {
		if sched.Challenge(k) {
			continue
		}
		d, _ := dMeas.At(k)
		v, _ := vMeas.At(k)
		if len(histD) >= arOrder {
			lmsD.Update(reg(histD), d)
			lmsV.Update(reg(histV), v)
		}
		histD = append(histD, d)
		histV = append(histV, v)
	}
	pd, pv = nil, nil
	for k := onset; k < horizon; k++ {
		d := lmsD.Predict(reg(histD))
		v := lmsV.Predict(reg(histV))
		histD = append(histD, d)
		histV = append(histV, v)
		pd = append(pd, d)
		pv = append(pv, v)
	}
	score("lms-ar4", pd, pv)

	return rows, nil
}

// FormatEstimatorAblation renders A1.
func FormatEstimatorAblation(rows []EstimatorRow) string {
	var b strings.Builder
	b.WriteString("A1: estimator ablation — free-run error over the attack window\n")
	b.WriteString("    (trained on the clean Fig 2a stream up to k=182, scored on k=182..300)\n")
	fmt.Fprintf(&b, "%-22s %12s %12s %9s\n", "estimator", "dist-rmse", "vel-rmse", "diverged")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %12.2f %12.3f %9v\n", r.Estimator, r.DistRMSE, r.VelRMSE, r.Diverged)
	}
	return b.String()
}

// DetectorRow is one row of ablation A2: detection latency and false
// positives for CRA (at several challenge rates) and the chi-square
// residual baseline.
type DetectorRow struct {
	Detector     string
	LatencyDoS   int // steps from onset to flag; -1 = missed
	LatencyDelay int
	FPClean      int // alarms raised on the clean run
}

// DetectorAblation compares CRA challenge rates against a chi-square
// residual detector on identical measurement streams.
func DetectorAblation() ([]DetectorRow, error) {
	onset := 182
	// Streams: clean baseline, undefended DoS, undefended delay — the raw
	// radar outputs each detector inspects.
	clean, err := sim.Run(sim.Baseline(sim.Fig2aDoS()))
	if err != nil {
		return nil, err
	}
	dos, err := sim.Run(sim.Undefended(sim.Fig2aDoS()))
	if err != nil {
		return nil, err
	}
	delay, err := sim.Run(sim.Undefended(sim.Fig2bDelay()))
	if err != nil {
		return nil, err
	}
	horizon := clean.Scenario.Steps

	var rows []DetectorRow

	// CRA at pseudo-random challenge rates ~2^-w: latency is the wait for
	// the first challenge instant at/after onset; FP and FN are zero by
	// construction (Section 5.2), which the sim package's accuracy tests
	// verify — here we report the structural latency.
	for _, w := range []int{2, 3, 4, 5} {
		sched, err := prbs.NewLFSRSchedule(12, 42, w, horizon)
		if err != nil {
			return nil, err
		}
		lat := -1
		for k := onset; k < horizon; k++ {
			if sched.Challenge(k) {
				lat = k - onset
				break
			}
		}
		rows = append(rows, DetectorRow{
			Detector:     fmt.Sprintf("cra (rate~%.3f)", sched.Rate()),
			LatencyDoS:   lat,
			LatencyDelay: lat,
			FPClean:      0,
		})
	}
	// The paper's pinned schedule: a challenge at the onset itself.
	rows = append(rows, DetectorRow{Detector: "cra (paper schedule)", LatencyDoS: 0, LatencyDelay: 0, FPClean: 0})

	// Chi-square residual detector on the distance channel.
	for _, th := range []float64{4, 8, 16} {
		runChi := func(res *sim.Result) (int, int, error) {
			d, err := baseline.NewChiSquareDetector(0.05, 0.5, 100, 8, th)
			if err != nil {
				return 0, 0, err
			}
			meas := res.Distance.Series(sim.SeriesMeasured)
			sched := res.Scenario.Schedule
			lat, fp := -1, 0
			for k := 0; k < horizon; k++ {
				if sched.Challenge(k) {
					d.Predict() // no measurement at challenge instants
					continue
				}
				y, ok := meas.At(k)
				if !ok {
					continue
				}
				if d.Step(k, y) {
					if k < onset {
						fp++
					} else if lat < 0 {
						lat = k - onset
					}
				}
			}
			return lat, fp, nil
		}
		latDoS, _, err := runChi(dos)
		if err != nil {
			return nil, err
		}
		latDelay, _, err := runChi(delay)
		if err != nil {
			return nil, err
		}
		_, fpClean, err := runChi(clean)
		if err != nil {
			return nil, err
		}
		rows = append(rows, DetectorRow{
			Detector:     fmt.Sprintf("chi-square (th=%g)", th),
			LatencyDoS:   latDoS,
			LatencyDelay: latDelay,
			FPClean:      fpClean,
		})
	}
	return rows, nil
}

// FormatDetectorAblation renders A2.
func FormatDetectorAblation(rows []DetectorRow) string {
	var b strings.Builder
	b.WriteString("A2: detector ablation — latency (steps after onset; -1 = missed) and\n")
	b.WriteString("    false alarms on the clean run\n")
	fmt.Fprintf(&b, "%-24s %12s %14s %10s\n", "detector", "latency-dos", "latency-delay", "fp-clean")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %12d %14d %10d\n", r.Detector, r.LatencyDoS, r.LatencyDelay, r.FPClean)
	}
	return b.String()
}

// BeatRow is one row of ablation A3: beat-frequency extraction accuracy of
// the FFT periodogram vs root-MUSIC across target range and snapshot size.
type BeatRow struct {
	Extractor string
	Samples   int
	Distance  float64
	SNRdB     float64
	DistRMSE  float64
	VelRMSE   float64
}

// BeatAblation measures distance/velocity estimation error of both
// extractors over repeated noisy sweeps.
func BeatAblation(trials int) ([]BeatRow, error) {
	if trials < 1 {
		trials = 1
	}
	p := radar.BoschLRR2()
	extractors := []radar.BeatExtractor{radar.FFTExtractor{}, radar.MUSICExtractor{}}
	var rows []BeatRow
	for _, n := range []int{64, 256} {
		for _, d := range []float64{20, 100, 180} {
			for _, ext := range extractors {
				src := noise.NewSource(1000 + int64(n) + int64(d))
				var sd, sv float64
				vTrue := -1.5
				ok := 0
				for t := 0; t < trials; t++ {
					dm, vm, err := p.MeasureSweep(d, vTrue, n, ext, src)
					if err != nil {
						continue
					}
					sd += (dm - d) * (dm - d)
					sv += (vm - vTrue) * (vm - vTrue)
					ok++
				}
				if ok == 0 {
					return nil, fmt.Errorf("report: extractor %s failed all trials", ext.Name())
				}
				rows = append(rows, BeatRow{
					Extractor: ext.Name(),
					Samples:   n,
					Distance:  d,
					SNRdB:     p.SNRdB(d),
					DistRMSE:  math.Sqrt(sd / float64(ok)),
					VelRMSE:   math.Sqrt(sv / float64(ok)),
				})
			}
		}
	}
	return rows, nil
}

// FormatBeatAblation renders A3.
func FormatBeatAblation(rows []BeatRow) string {
	var b strings.Builder
	b.WriteString("A3: beat-frequency extraction — FFT periodogram vs root-MUSIC\n")
	b.WriteString("    (distance / range-rate RMSE over repeated noisy sweeps)\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %8s %12s %12s\n", "extractor", "samples", "d (m)", "snr(dB)", "dist-rmse", "vel-rmse")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8d %8.0f %8.1f %12.3f %12.3f\n",
			r.Extractor, r.Samples, r.Distance, r.SNRdB, r.DistRMSE, r.VelRMSE)
	}
	return b.String()
}
