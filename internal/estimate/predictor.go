package estimate

import "math"

// Predictor wraps an RLS filter into the measurement estimator of the
// paper's Algorithm 2. The regressor h_k — the "entries of measurement
// matrix" of Algorithm 1 — is the local-trend basis [1, tau], so the
// filter performs exponentially weighted recursive linear regression on
// the measurement stream. During normal operation each accepted sensor
// value updates the fit; once the CRA detector flags an attack the fit is
// frozen and evaluated at future time steps, supplying the controller
// with a stable extrapolation of the pre-attack trend for the duration of
// the attack.
//
// Numerically, the basis is re-centered on the current step: before each
// sample the weight vector and P matrix are translated one step back in
// time (RLS.Translate), and the update always uses the regressor [1, 0].
// This is algebraically identical to regressing on absolute time but
// keeps the information matrix stationary and well conditioned —
// regressing on raw absolute time suffers covariance wind-up under a
// forgetting factor, and an autoregressive basis (whose noisy roots stray
// outside the unit circle) diverges exponentially over the paper's
// ~2-minute attack window.
type Predictor struct {
	rls   RLS
	delta float64 // P re-initialization on a CUSUM reset
	n     int     // samples observed since the last reset
	ahead int     // free-run steps since the last Observe
	wall  int     // wall-clock step of the last Observe/SkipStep/Predict

	// CUSUM change detection state (see regimeChanged).
	sigma2 float64 // EWMA of squared residuals
	sigmaN int     // residuals absorbed into sigma2
	gPos   float64 // one-sided CUSUM statistics
	gNeg   float64
	resets int

	freeRunning bool
}

// PredictorConfig holds the two parameters of the paper's Algorithm 1.
type PredictorConfig struct {
	// Lambda is the RLS forgetting factor in (0, 1]; values below 1 make
	// the fit local so the extrapolation continues the *recent* trend.
	Lambda float64
	// Delta initializes P = Delta*I (the paper uses 1).
	Delta float64
}

// The predictor's fixed design constants.
//
// timeScale divides the step index in the basis for conditioning: tau
// advances by 1/timeScale per step. It is a float constant so that
// 1/timeScale is 0.125, not integer division.
//
// The residuals are monitored by a two-sided CUSUM: when the signal
// switches regime (the Figure 3 leader flips from deceleration to
// acceleration), the discounted fit still carries pre-change data whose
// weight decays only geometrically, and an attack detected shortly after
// the switch would free-run on a contaminated slope — a quadratically
// growing distance error. On an alarm the filter resets and refits from
// post-change samples only. changeThreshold is the alarm level and
// changeDrift the slack per step, both in residual standard deviations.
const (
	timeScale       = 8.0
	changeThreshold = 8.0
	changeDrift     = 0.5
)

// DefaultPredictorConfig returns the configuration used by the case study:
// a local linear trend with ~16-step memory — enough to extrapolate the
// smooth distance/velocity evolution of car following through the attack.
func DefaultPredictorConfig() PredictorConfig {
	return PredictorConfig{Lambda: 0.98, Delta: 100}
}

// NewPredictor builds a Predictor.
func NewPredictor(cfg PredictorConfig) (*Predictor, error) {
	r, err := NewRLS(cfg.Lambda, cfg.Delta)
	if err != nil {
		return nil, err
	}
	return &Predictor{rls: *r, delta: cfg.Delta, wall: -1}, nil
}

// Ready reports whether enough samples have been observed for the fit to
// be determined: two points fix a line.
func (p *Predictor) Ready() bool { return p.n >= 2 }

// Clone returns a deep copy of the predictor. The simulation snapshots the
// predictor at every verified-clean challenge instant: when an attack is
// detected, all samples since the previous challenge are suspect (CRA
// cannot vouch for them), so the estimator rolls back to the snapshot
// before free-running — otherwise corrupted samples absorbed between
// attack onset and detection would poison the extrapolated trend.
func (p *Predictor) Clone() *Predictor {
	c := *p
	return &c
}

// Resets returns how many CUSUM-triggered refits have occurred.
func (p *Predictor) Resets() int { return p.resets }

// Observe trains on a trusted measurement (no attack in progress) and
// returns the one-step-ahead prediction that was made for it.
//
//safesense:hotpath
func (p *Predictor) Observe(y float64) (pred float64, err error) {
	p.freeRunning = false
	// Advance the basis origin by every elapsed step, including any
	// free-run steps since the last Observe — otherwise data recorded
	// before an attack would be mis-dated relative to post-attack data
	// and the refit slope would absorb the gap as a spurious jump.
	for i := 0; i <= p.ahead; i++ {
		p.rls.Translate(1 / timeScale)
	}
	p.ahead = 0
	p.wall++
	pred, e, err := p.rls.Update([2]float64{1, 0}, y) // tau = 0: the current step
	if err != nil {
		return 0, err
	}
	p.n++
	if p.regimeChanged(e) {
		// Refit the trend from post-change data. The signal itself is
		// continuous across a regime change — only its derivative jumps —
		// so the level (the current fitted value, which after the reset's
		// Update below absorbs the newest sample too) is preserved and
		// only the slope and the covariance reset. (delta was validated
		// when the filter was built.)
		p.rls.w[1] = 0
		p.rls.reset(p.delta)
		p.n, p.sigma2, p.sigmaN, p.gPos, p.gNeg = 0, 0, 0, 0, 0
		p.resets++
		if _, _, err := p.rls.Update([2]float64{1, 0}, y); err != nil {
			return 0, err
		}
		p.n = 1
	}
	return pred, nil
}

// regimeChanged runs the two-sided CUSUM test on the one-step residual e.
// The first residuals after (re)initialization calibrate the noise scale
// and are not tested.
func (p *Predictor) regimeChanged(e float64) bool {
	const warmup = 8
	if p.n <= 3 {
		return false // transient of a fresh fit
	}
	if p.sigmaN < warmup {
		// Running mean of e^2 during calibration; sigma2 holds the mean.
		p.sigma2 = (p.sigma2*float64(p.sigmaN) + e*e) / float64(p.sigmaN+1)
		p.sigmaN++
		return false
	}
	sigma := math.Sqrt(p.sigma2)
	if sigma <= 0 {
		// Noiseless stream: any nonzero residual is a change.
		return e != 0
	}
	z := e / sigma
	p.gPos = math.Max(0, p.gPos+z-changeDrift)
	p.gNeg = math.Max(0, p.gNeg-z-changeDrift)
	if p.gPos > changeThreshold || p.gNeg > changeThreshold {
		return true
	}
	// Slow EWMA keeps the scale current without chasing the very
	// residuals the test inspects.
	p.sigma2 += 0.05 * (e*e - p.sigma2)
	return false
}

// Predict produces the next estimated measurement while the sensor is under
// attack (Algorithm 2 line 11) by evaluating the frozen fit one more step
// ahead. Successive calls free-run forward in time.
//
//safesense:hotpath
func (p *Predictor) Predict() float64 {
	p.freeRunning = true
	p.ahead++
	p.wall++
	return p.rls.Predict([2]float64{1, float64(p.ahead) / timeScale})
}

// SkipStep advances the predictor's internal clock one step without an
// observation or a prediction. The simulation calls it at challenge
// instants — the radar produced no measurement, but wall-clock time still
// passed, and without the skip every later prediction would lag truth by
// one step per elapsed challenge.
//
//safesense:hotpath
func (p *Predictor) SkipStep() { p.ahead++; p.wall++ }

// Wall returns the wall-clock step of the last Observe, SkipStep, or
// Predict call (-1 before any). The simulation uses it to catch a
// restored snapshot up to the current step after a rollback.
func (p *Predictor) Wall() int { return p.wall }

// FreeRunning reports whether the last call was a Predict.
func (p *Predictor) FreeRunning() bool { return p.freeRunning }

// Weights exposes the underlying RLS weights (diagnostics).
func (p *Predictor) Weights() [2]float64 { return p.rls.Weights() }

// Slope returns the current fitted trend in measurement units per step.
func (p *Predictor) Slope() float64 { return p.rls.w[1] / timeScale }

// PairPredictor bundles two Predictors for the radar's (distance,
// relative velocity) measurement vector.
type PairPredictor struct {
	Distance *Predictor
	Velocity *Predictor
}

// NewPairPredictor builds predictors for both radar channels with the same
// configuration.
func NewPairPredictor(cfg PredictorConfig) (*PairPredictor, error) {
	d, err := NewPredictor(cfg)
	if err != nil {
		return nil, err
	}
	v, err := NewPredictor(cfg)
	if err != nil {
		return nil, err
	}
	return &PairPredictor{Distance: d, Velocity: v}, nil
}

// Observe trains both channels on a trusted (d, v) measurement.
func (pp *PairPredictor) Observe(d, v float64) error {
	if _, err := pp.Distance.Observe(d); err != nil {
		return err
	}
	_, err := pp.Velocity.Observe(v)
	return err
}

// Predict free-runs both channels one step. The distance channel is
// clamped at zero — a radar cannot report a negative range.
func (pp *PairPredictor) Predict() (d, v float64) {
	d = pp.Distance.Predict()
	if d < 0 {
		d = 0
	}
	return d, pp.Velocity.Predict()
}
