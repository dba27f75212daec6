package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"safesense/internal/acc"
	"safesense/internal/attack"
	"safesense/internal/cra"
	"safesense/internal/estimate"
	"safesense/internal/noise"
	obstrace "safesense/internal/obs/trace"
	"safesense/internal/radar"
	"safesense/internal/trace"
	"safesense/internal/vehicle"
)

// Trace series names used across the figure sets.
const (
	SeriesTrue      = "truth"
	SeriesNoAttack  = "radar-without-attack"
	SeriesMeasured  = "radar-with-attack"
	SeriesEstimated = "estimated"
	SeriesFollower  = "follower-speed"
	SeriesLeader    = "leader-speed"
)

// NumericsVersion numbers the floating-point behaviour of a run. It goes
// up with every change that makes the same scenario and seed produce
// different bits, so a stored result from another version reads as
// stale rather than as a determinism failure. Version 1 is everything
// before the stamp existed; version 2 synthesizes the beat tones of
// signal-level runs by phasor recurrence.
const NumericsVersion = 2

// Detail selects how much of a run RunContext records. The levels are
// ordered: each records everything the one below it does. Every level
// computes the same summary scalars, bit for bit; a level only adds
// recordings on top of them.
type Detail int

const (
	// Summary records the scalars, Flight and Anomalies, and reads no
	// clock: what a campaign job keeps of a run.
	Summary Detail = iota
	// Timed adds the phase breakdown (Phases) and RLSTime.
	Timed
	// Traced adds the Distance, Velocity and Speeds series and the
	// per-step detector log (Events). It is the default.
	Traced
)

// detailKey carries a context's run detail.
type detailKey struct{}

// WithDetail returns a context whose runs (via RunContext) record at
// level d. A context without a level runs at Traced.
func WithDetail(ctx context.Context, d Detail) context.Context {
	return context.WithValue(ctx, detailKey{}, d)
}

// Result carries everything a figure or table needs from one run.
type Result struct {
	Scenario Scenario

	// Distance and Velocity hold the measurement-domain traces (m and
	// m/s): truth, radar output, and — when defended — the RLS estimates
	// during the attack. Nil below Traced, as is Speeds.
	Distance *trace.Set
	Velocity *trace.Set
	// Speeds holds the leader and follower speed traces.
	Speeds *trace.Set

	// Events is the per-step CRA detector log (empty when undefended,
	// nil below Traced).
	Events []cra.Event
	// DetectedAt is the step the attack was flagged, -1 if never.
	DetectedAt int
	// Accuracy scores the detector at challenge instants.
	Accuracy cra.Accuracy

	// MinGap is the smallest leader-follower gap over the run.
	MinGap float64
	// CollisionAt is the first step the gap reached zero, -1 if none.
	CollisionAt int

	// RLSTime is the cumulative wall time spent inside the RLS predictor's
	// Observe and Predict calls — the run's rls_estimation phase total
	// (the paper reports ~1.2e7 ns). Zero on a Summary run.
	RLSTime time.Duration
	// EstimateSteps counts free-run predictions delivered.
	EstimateSteps int

	// EstimateDistRMSE / EstimateVelRMSE compare the estimates delivered
	// during the attack against ground truth (NaN-free; zero when no
	// estimates were produced).
	EstimateDistRMSE, EstimateVelRMSE float64

	// EstimateDistMaxErr / EstimateVelMaxErr are the worst-case absolute
	// estimate-vs-truth errors over the same window (zero when no
	// estimates were produced).
	EstimateDistMaxErr, EstimateVelMaxErr float64

	// FinalFollowerSpeed and FinalGap snapshot the end state.
	FinalFollowerSpeed, FinalGap float64

	// Phases breaks the run's wall time into the pipeline phases (see
	// the Phase* constants; PhaseOther takes the remainder, so the
	// phases sum to the run); cumulative per run, also fed into the
	// safesense_sim_phase_seconds histogram. Nil on a Summary run.
	Phases []PhaseTiming

	// Flight is the run's flight-recorder timeline: challenge instants,
	// detector transitions, RLS takeover/release, gap exceedances, and
	// collisions, each stamped with timestep k in emission order.
	Flight []FlightEvent
	// Anomalies holds the last-N-timestep state dumps captured when a
	// collision or a challenge-instant false positive/negative occurred
	// (at most maxAnomalyDumps per run).
	Anomalies []AnomalyDump
}

// ErrNonFiniteEstimate reports a free-run estimate that is NaN or
// infinite: the recovery estimator's state is poisoned, and the
// controller's clamps would let the value through. The run ends with it
// (wrapped) rather than deliver the estimate.
var ErrNonFiniteEstimate = errors.New("sim: recovery estimate not finite")

// Run executes the scenario at Traced detail, without a trace span (see
// RunContext).
func Run(s Scenario) (*Result, error) { return RunContext(context.Background(), s) }

// RunContext executes the scenario on a fresh Runner (see Runner.Run), so
// the Result is the caller's alone.
func RunContext(ctx context.Context, s Scenario) (*Result, error) {
	return new(Runner).Run(ctx, s)
}

// Runner is the state of a closed-loop run, kept from one run to the
// next: the noise source (re-seeded), the flight recorder's ring and
// event buffer, the phase tracker, the recovery estimator and its
// snapshot slot, and the Result. The attack, radar front end, estimator
// and controller are built from the scenario's configuration and kept
// while later scenarios share it (see partsKey); each run resets them by
// value. A campaign worker owns one Runner and runs every job on it.
//
// The zero Runner is ready to use. A Runner is not safe for concurrent
// use.
type Runner struct {
	src  *noise.Source
	fr   flightRecorder
	tr   phaseTracker
	res  Result
	hook func(takeover bool) // r.transition, bound once

	// Built by build for key. predInit and lowerInit are the fresh
	// estimator and actuator state each run starts from.
	key       partsKey
	atk       attack.Attack
	sweepAtk  radar.SweepCorruptor  // atk's sweep-level form, if any
	fe        *radar.FrontEnd       // closed-form pipeline; nil at signal level
	sfe       *radar.SignalFrontEnd // signal-level pipeline; nil in closed form
	predInit  *estimate.RecoveryEstimator
	ctl       *acc.Controller
	lowerInit acc.LowerController

	pred, snapshot estimate.RecoveryEstimator
}

// partsKey is the part of a scenario a Runner's built parts depend on.
// The zero key matches no valid scenario (its radar parameters fail
// Validate), so a zero Runner builds on its first run.
type partsKey struct {
	radar     radar.Params
	signal    bool
	samples   int
	attack    AttackSpec
	predictor estimate.PredictorConfig
	setSpeed  float64
}

// Run executes the scenario at the context's Detail (see WithDetail).
// When ctx carries a trace span (see internal/obs/trace) the run records
// a child span annotated with the scenario identity and outcome, and —
// when the Go execution tracer is on — per-phase runtime/trace regions,
// so `go tool trace` shows the pipeline phases natively.
//
// The Result belongs to the Runner: the next Run overwrites it and its
// Flight timeline. Copy what must outlive that. The series, Events,
// Phases and Anomalies are allocated per run and are the caller's.
func (r *Runner) Run(ctx context.Context, s Scenario) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	ctx, span := obstrace.StartSpan(ctx, "sim.run")
	defer span.End()
	if span.Sampled() {
		span.SetAttr("scenario", s.Name)
		span.SetAttr("attack", s.Attack.Kind.String())
		span.SetAttrInt("seed", s.Seed)
		span.SetAttrInt("steps", int64(s.Steps))
	}
	detail := Traced
	if d, ok := ctx.Value(detailKey{}).(Detail); ok {
		detail = d
	}
	traced := detail >= Traced
	// The tracker starts in the other phase; every exit stops it, and
	// the success path stops it explicitly before recording.
	tr := &r.tr
	tr.start(ctx, detail >= Timed)
	defer tr.stop()
	threshold, err := r.reset(s, flightSinkFrom(ctx))
	if err != nil {
		return nil, err
	}
	det, err := cra.NewDetector(s.Schedule, threshold)
	if err != nil {
		return nil, err
	}
	atk, pred, ctl, fr, res := r.atk, &r.pred, r.ctl, &r.fr, &r.res

	leader := vehicle.State{Position: s.InitialGap, Velocity: s.LeaderSpeed}
	follower := vehicle.State{Position: 0, Velocity: s.SetSpeed}

	*res = Result{
		Scenario:    s,
		DetectedAt:  -1,
		CollisionAt: -1,
		MinGap:      vehicle.Gap(leader, follower),
	}
	// The series are recordings only a Traced run makes (below it they
	// stay nil, and appends to a nil series record nothing); every
	// summary scalar is scored as the run goes.
	var dTrue, dMeas, dEst, vTrue, vMeas, vEst, spF, spL *trace.Series
	if traced {
		res.Distance = trace.NewSet(s.Name+": relative distance", "time (s)", "distance (m)")
		res.Velocity = trace.NewSet(s.Name+": relative velocity", "time (s)", "velocity (m/s)")
		res.Speeds = trace.NewSet(s.Name+": vehicle speeds", "time (s)", "speed (m/s)")
		dTrue = res.Distance.Add(SeriesTrue)
		dMeas = res.Distance.Add(SeriesMeasured)
		dEst = res.Distance.Add(SeriesEstimated)
		vTrue = res.Velocity.Add(SeriesTrue)
		vMeas = res.Velocity.Add(SeriesMeasured)
		vEst = res.Velocity.Add(SeriesEstimated)
		spF = res.Speeds.Add(SeriesFollower)
		spL = res.Speeds.Add(SeriesLeader)
		reserve(s.Steps, dTrue, dMeas, dEst, vTrue, vMeas, vEst, spF, spL)
		if s.Defended {
			res.Events = make([]cra.Event, 0, s.Steps)
		}
	}

	// Held values bridge challenge instants when no measurement exists.
	heldD, heldV := s.InitialGap, 0.0
	// Squared estimate-vs-truth errors, summed in delivery order as
	// stats.RMSE sums them, so the RMSEs keep its bits.
	var sqErrD, sqErrV float64

	// Rollback bookkeeping: CRA verifies the channel only at challenge
	// instants, so when an attack is detected every sample since the last
	// clean challenge is suspect. The predictor is snapshotted (by value,
	// into one slot) at each verified-clean challenge and rolled back on
	// detection, then caught up to "now" with discarded free-run steps.
	haveSnapshot := false

	for k := 0; k < s.Steps; k++ {
		fr.k = k
		// Leader dynamics (Eqn 15/17); standstill saturation in Step.
		la := s.LeaderProfile.Accel(k)
		if leader.Velocity <= 0 && la < 0 {
			la = 0
		}
		leader = leader.Step(la, 1)

		d := vehicle.Gap(leader, follower)
		dv := vehicle.RelVelocity(leader, follower)
		dTrue.Append(k, d)
		vTrue.Append(k, dv)
		spF.Append(k, follower.Velocity)
		spL.Append(k, leader.Velocity)

		// measure leaves its last phase open; the detector check, when
		// defended, shares that boundary.
		m := r.measure(k, d, dv)
		var ev cra.Event
		if s.Defended {
			tr.enter(phaseCRACheck)
			ev = det.Step(m)
		}
		tr.enter(phaseOther)
		dMeas.Append(k, m.Distance)
		vMeas.Append(k, m.RelVelocity)
		if m.Challenge {
			fr.emit(EventChallenge, m.Power, "")
		}

		useD, useV := m.Distance, m.RelVelocity
		underAttack, estimated := false, false
		if s.Defended {
			if traced {
				res.Events = append(res.Events, ev)
			}
			res.Accuracy.Score(ev, atk.Active(k))
			if ev.Detected && res.DetectedAt < 0 {
				res.DetectedAt = k
			}
			underAttack = ev.State == cra.UnderAttack
			switch {
			case ev.Detected:
				fr.emit(EventCRAFlagged, m.Power, "challenge instant read hot")
				if !atk.Active(k) {
					fr.flagAnomaly(AnomalyFalsePositive, "flagged with no attack active")
				}
			case ev.ClearedNow:
				fr.emit(EventCRACleared, m.Power, "challenge instant read quiet")
			case ev.Challenged && ev.State == cra.Clear && atk.Active(k):
				fr.flagAnomaly(AnomalyFalseNegative, "quiet challenge under active attack")
			}
			if ev.Detected && haveSnapshot {
				// Discard the possibly poisoned samples absorbed since
				// the last verified-clean challenge: restore and free-run
				// the restored filter up to the current step.
				*pred = r.snapshot
				for pred.Wall() < k-1 {
					pred.CatchUp()
				}
			}
			if ev.Challenged && ev.State == cra.Clear {
				r.snapshot, haveSnapshot = *pred, true
			}
		}
		// The RLS phase covers only Predict/Observe and runs straight
		// into the vehicle step, so estimate bookkeeping waits until the
		// controller has acted.
		switch {
		case s.Defended && underAttack:
			if pred.Ready() {
				// Algorithm 2 line 11: estimate for the attack duration.
				tr.enter(phaseRLSEstimation)
				useD, useV = pred.Predict(follower.Velocity)
				if !finite(useD) || !finite(useV) {
					fr.emit(EventEstimateFault, 0, "free-run estimate not finite")
					return nil, fmt.Errorf("%w at step %d", ErrNonFiniteEstimate, k)
				}
				estimated = true
			} else {
				// Attack flagged before the fit is determined: the
				// corrupted measurement must not reach the controller
				// or the filter — hold the last accepted values.
				useD, useV = heldD, heldV
				pred.SkipStep()
			}
		case m.Challenge:
			// No measurement at a challenge instant: hold the last
			// accepted values for the controller, but keep the
			// predictor's clock aligned with wall time.
			useD, useV = heldD, heldV
			if s.Defended {
				pred.SkipStep()
			}
		default:
			// Accepted measurement: train the predictor on it.
			fr.inExceed = false
			if s.Defended {
				tr.enter(phaseRLSEstimation)
				if err := pred.Observe(m.Distance, m.RelVelocity, follower.Velocity); err != nil {
					fr.emit(EventEstimateFault, 0, "predictor rejected a trusted measurement")
					return nil, fmt.Errorf("sim: predictor: %w", err)
				}
			}
		}
		heldD, heldV = useD, useV

		tr.enter(phaseVehicleStep)
		_, aF := ctl.Step(useD, useV, follower.Velocity, true)
		follower = follower.Step(aF, 1)
		tr.enter(phaseOther)

		if estimated {
			res.EstimateSteps++
			dEst.Append(k, useD)
			vEst.Append(k, useV)
			// Error terms in the operation order of stats.RMSE and
			// stats.MaxAbsErr (estimate minus truth).
			errD, errV := useD-d, useV-dv
			sqErrD += errD * errD
			sqErrV += errV * errV
			gapErr := math.Abs(errD)
			if gapErr > res.EstimateDistMaxErr {
				res.EstimateDistMaxErr = gapErr
			}
			if e := math.Abs(errV); e > res.EstimateVelMaxErr {
				res.EstimateVelMaxErr = e
			}
			if gapErr > GapExceedanceM {
				if !fr.inExceed {
					fr.emit(EventGapExceedance, gapErr, "estimate drifted from truth")
					fr.inExceed = true
				}
			} else {
				fr.inExceed = false
			}
		}

		gap := vehicle.Gap(leader, follower)
		if gap < res.MinGap {
			res.MinGap = gap
		}
		if gap <= 0 && res.CollisionAt < 0 {
			res.CollisionAt = k
			fr.emit(EventCollision, gap, "leader-follower gap reached zero")
			fr.flagAnomaly(AnomalyCollision, "")
		}
		fr.endStep(StepState{
			K: k, GapM: gap, RelVelMps: dv,
			MeasuredM: m.Distance, UsedM: useD,
			FollowerMps: follower.Velocity, LeaderMps: leader.Velocity,
			UnderAttack: underAttack,
		})
	}

	// A run that ends while still estimating releases the channel at the
	// horizon, so every takeover has a matching release in the timeline.
	if s.Defended && pred.FreeRunning() {
		fr.emit(EventRLSRelease, float64(res.EstimateSteps), "run ended while estimating")
	}

	res.FinalFollowerSpeed = follower.Velocity
	res.FinalGap = vehicle.Gap(leader, follower)
	if n := res.EstimateSteps; n > 0 {
		res.EstimateDistRMSE = math.Sqrt(sqErrD / float64(n))
		res.EstimateVelRMSE = math.Sqrt(sqErrV / float64(n))
	}
	tr.stop()
	res.RLSTime = tr.total[phaseRLSEstimation]
	res.Phases = recordPhases(tr)
	res.Flight = fr.events
	res.Anomalies = fr.anomalies
	if span.Sampled() {
		span.SetAttr("detected_at", strconv.Itoa(res.DetectedAt))
		span.SetAttrInt("flight_events", int64(len(res.Flight)))
		if res.CollisionAt >= 0 {
			span.SetAttr("collision_at", strconv.Itoa(res.CollisionAt))
		}
	}
	return res, nil
}

// reserve gives each series room for steps samples, carved from one
// backing array per column so the run's traces cost two allocations.
// Full slice expressions cap each series, so growing one past steps
// reallocates instead of overwriting its neighbour.
func reserve(steps int, series ...*trace.Series) {
	ts := make([]int, steps*len(series))
	ys := make([]float64, steps*len(series))
	for i, s := range series {
		lo, hi := i*steps, (i+1)*steps
		s.T, s.Y = ts[lo:lo:hi], ys[lo:lo:hi]
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// reset readies the run state for s: it re-seeds the noise source,
// empties the flight recorder, builds the parts when s needs other ones
// than the last run, and resets them by value. A scenario with its own
// Extractor always gets fresh parts: the extractor may keep state across
// sweeps. It returns the detector's quiet-channel threshold.
func (r *Runner) reset(s Scenario, sink FlightSink) (threshold float64, err error) {
	if r.src == nil {
		r.src = noise.NewSource(s.Seed)
	} else {
		r.src.Seed(s.Seed)
	}
	r.fr.reset(sink)
	key := partsKey{
		radar: s.Radar, signal: s.SignalLevel, samples: s.SignalSamples,
		attack: s.Attack, predictor: s.Predictor, setSpeed: s.SetSpeed,
	}
	if key != r.key || s.Extractor != nil {
		r.key = partsKey{} // unbuilt until build succeeds
		if err := r.build(s); err != nil {
			return 0, err
		}
		r.key = key
	}
	r.pred = *r.predInit
	*r.ctl.Lower = r.lowerInit
	if r.sfe != nil {
		r.sfe.Schedule = s.Schedule
		return r.sfe.ZeroThreshold(), nil
	}
	r.fe.Schedule = s.Schedule
	return r.fe.ZeroThreshold(), nil
}

// build makes the run's parts for s with their constructors: the attack
// (drawing from the run's noise source), the fast closed-form front end
// or the high-fidelity signal one, the recovery estimator with the
// transition hook installed, and the controller.
func (r *Runner) build(s Scenario) error {
	atk, err := buildAttack(s, r.src)
	if err != nil {
		return err
	}
	r.atk = atk
	r.sweepAtk, _ = atk.(radar.SweepCorruptor)
	r.fe, r.sfe = nil, nil
	if !s.SignalLevel {
		if r.fe, err = radar.NewFrontEnd(s.Radar, s.Schedule, r.src); err != nil {
			return err
		}
	} else {
		samples := s.SignalSamples
		if samples == 0 {
			samples = 128
		}
		ext := s.Extractor
		if ext == nil {
			ext = radar.FFTExtractor{}
		}
		if r.sfe, err = radar.NewSignalFrontEnd(s.Radar, s.Schedule, ext, samples, r.src); err != nil {
			return err
		}
	}
	pred, err := estimate.NewRecoveryEstimator(s.Predictor)
	if err != nil {
		return err
	}
	if r.hook == nil {
		r.hook = r.transition
	}
	pred.SetTransitionHook(r.hook)
	r.predInit = pred
	if r.ctl, err = acc.NewController(acc.DefaultConfig(s.SetSpeed)); err != nil {
		return err
	}
	r.lowerInit = *r.ctl.Lower
	return nil
}

// transition is the recovery estimator's hook: it stamps the RLS
// takeover and release boundaries into the flight record.
func (r *Runner) transition(takeover bool) {
	if takeover {
		r.fr.emit(EventRLSTakeover, 0, "estimates replacing the measurement channel")
	} else {
		r.fr.emit(EventRLSRelease, float64(r.res.EstimateSteps), "trusted measurements resumed")
	}
}

func buildAttack(s Scenario, src *noise.Source) (attack.Attack, error) {
	switch s.Attack.Kind {
	case NoAttack:
		return attack.None{}, nil
	case DoSAttack:
		return attack.NewDoS(s.Attack.Window, s.Attack.Jammer, s.Radar, src)
	case DelayAttack:
		return attack.NewDelayInjection(s.Attack.Window, s.Attack.OffsetM, s.Radar)
	case FastAdversaryAttack:
		return attack.NewFastAdversary(s.Attack.Window, s.Attack.OffsetM)
	default:
		return nil, fmt.Errorf("sim: unknown attack kind %d", s.Attack.Kind)
	}
}

// measure produces the (possibly attacked) step measurement for the true
// relative state. It enters radar_synthesis for sweep synthesis and
// corruption and, on the signal pipeline, beat_extraction for the
// beat-spectrum estimator; it returns with that phase still open so the
// caller's next phase shares the boundary.
func (r *Runner) measure(k int, d, dv float64) radar.Measurement {
	r.tr.enter(phaseRadarSynthesis)
	if r.sfe == nil {
		return r.atk.Corrupt(k, r.fe.Observe(k, d, dv))
	}
	sweep, challenge := r.sfe.ObserveSweep(k, d, dv)
	if r.sweepAtk != nil {
		sweep = r.sweepAtk.CorruptSweep(k, sweep, challenge)
	}
	r.tr.enter(phaseBeatExtraction)
	m := r.sfe.Measure(k, sweep, challenge)
	if r.sweepAtk == nil {
		// Attacks without a physical-channel model (e.g. the fast
		// adversary) corrupt the extracted measurement instead.
		m = r.atk.Corrupt(k, m)
	}
	return m
}
