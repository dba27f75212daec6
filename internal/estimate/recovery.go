package estimate

// RecoveryEstimator is the measurement estimator the closed-loop case study
// uses during an attack. It combines two pieces of knowledge the paper's
// Section 6 grants the defender:
//
//  1. the RLS-extrapolated trend of the *leader's* speed — reconstructed
//     pre-attack as vL = Δv + vF from the radar's relative velocity and
//     the trusted on-board speed sensor ("We assume that the sensor
//     measuring velocity of the follower vehicle is trusted"), and
//  2. longitudinal kinematics: d(k+1) = d(k) + Δv(k) T.
//
// During an attack it free-runs the leader-speed trend, recomputes the
// relative velocity against the *current* trusted follower speed, and
// integrates the distance. Unlike extrapolating the distance channel
// open-loop, this keeps the estimate consistent with the follower's own
// reaction: if the controller brakes, the estimated gap opens — exactly
// what the paper's "estimated radar data" curves show tracking the
// no-attack trajectory.
type RecoveryEstimator struct {
	dist   Predictor // distance trend, used to seed the integration
	leader Predictor // leader-speed trend

	estD   float64
	seeded bool

	// freeRunning is true between the first Predict after training (the
	// estimator takes over the measurement channel) and the next Observe
	// (a trusted measurement releases it).
	freeRunning bool
	// onTransition, when set, is called at the takeover/release boundary
	// (see SetTransitionHook).
	onTransition func(takeover bool)
}

// SetTransitionHook installs fn to be called exactly once per boundary
// crossing of the detection/recovery state machine: fn(true) when the
// estimator's free-run estimates start replacing measurements (RLS
// takeover), fn(false) when a trusted measurement is absorbed again (RLS
// release). The hook survives Clone, so snapshot/rollback keeps firing
// events. The closed-loop simulation uses this to stamp rls_takeover /
// rls_release flight-recorder events.
func (r *RecoveryEstimator) SetTransitionHook(fn func(takeover bool)) { r.onTransition = fn }

// FreeRunning reports whether the estimator is currently replacing the
// measurement channel with free-run predictions.
func (r *RecoveryEstimator) FreeRunning() bool { return r.freeRunning }

// NewRecoveryEstimator builds the estimator; both internal channels use the
// same RLS configuration.
func NewRecoveryEstimator(cfg PredictorConfig) (*RecoveryEstimator, error) {
	d, err := NewPredictor(cfg)
	if err != nil {
		return nil, err
	}
	l, err := NewPredictor(cfg)
	if err != nil {
		return nil, err
	}
	return &RecoveryEstimator{dist: *d, leader: *l}, nil
}

// Observe trains on a trusted radar measurement (d, dv) with the follower's
// own speed vF. It resets any free-run in progress.
//
//safesense:hotpath
func (r *RecoveryEstimator) Observe(d, dv, vF float64) error {
	if r.freeRunning {
		r.freeRunning = false
		if r.onTransition != nil {
			r.onTransition(false)
		}
	}
	r.seeded = false
	if _, err := r.dist.Observe(d); err != nil {
		return err
	}
	_, err := r.leader.Observe(dv + vF)
	return err
}

// Ready reports whether the trends are determined.
func (r *RecoveryEstimator) Ready() bool { return r.dist.Ready() && r.leader.Ready() }

// SkipStep advances both channels' clocks across a measurement-less step
// (see Predictor.SkipStep).
func (r *RecoveryEstimator) SkipStep() {
	r.dist.SkipStep()
	r.leader.SkipStep()
}

// Wall returns the wall-clock step of the estimator (see Predictor.Wall).
func (r *RecoveryEstimator) Wall() int { return r.dist.Wall() }

// CatchUp advances both trends one step without delivering an estimate.
// After a rollback to an old snapshot the estimator must fast-forward to
// the present before producing values: the skipped steps already happened,
// so integrating the distance against the *current* follower speed over
// them would be meaningless — the next real Predict re-seeds the distance
// from the extrapolated trend instead.
//
//safesense:hotpath
func (r *RecoveryEstimator) CatchUp() {
	r.leader.Predict()
	r.dist.Predict()
	r.seeded = false
}

// Predict produces the next (distance, relative velocity) estimate while
// the sensor is under attack, given the current trusted follower speed.
// The first call after training seeds the distance from the RLS distance
// trend; subsequent calls integrate the kinematics. The leader speed is
// clamped at zero (vehicles do not reverse) and the distance at zero.
//
//safesense:hotpath
func (r *RecoveryEstimator) Predict(vF float64) (d, dv float64) {
	if !r.freeRunning {
		r.freeRunning = true
		if r.onTransition != nil {
			r.onTransition(true)
		}
	}
	vL := r.leader.Predict()
	if vL < 0 {
		vL = 0
	}
	dv = vL - vF
	if !r.seeded {
		r.estD = r.dist.Predict()
		r.seeded = true
	} else {
		r.dist.Predict() // keep the distance trend's clock aligned
		r.estD += dv
	}
	if r.estD < 0 {
		r.estD = 0
	}
	return r.estD, dv
}

// Clone deep-copies the estimator (see Predictor.Clone for why the
// simulation snapshots it at verified-clean challenge instants). It costs
// one allocation: the fixed-size filters copy with the struct.
func (r *RecoveryEstimator) Clone() *RecoveryEstimator {
	c := *r
	return &c
}
