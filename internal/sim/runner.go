package sim

import (
	"context"
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

// Run executes the scenario at Traced detail, without a trace span (see
// RunContext).
func Run(s Scenario) (*Result, error) { return RunContext(context.Background(), s) }

// RunContext executes the scenario at the context's Detail (see
// WithDetail). When ctx carries a trace span (see internal/obs/trace)
// the run records a child span annotated with the scenario identity and
// outcome, and — when the Go execution tracer is on — per-phase
// runtime/trace regions, so `go tool trace` shows the pipeline phases
// natively.
func RunContext(ctx context.Context, s Scenario) (*Result, error) {
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
	tr := startPhases(ctx, detail >= Timed)
	defer tr.stop()
	src := noise.NewSource(s.Seed)
	atk, err := buildAttack(s, src)
	if err != nil {
		return nil, err
	}
	measure, threshold, err := buildMeasurePipeline(s, atk, src, tr)
	if err != nil {
		return nil, err
	}
	det, err := cra.NewDetector(s.Schedule, threshold)
	if err != nil {
		return nil, err
	}
	pred, err := estimate.NewRecoveryEstimator(s.Predictor)
	if err != nil {
		return nil, err
	}
	ctl, err := acc.NewController(acc.DefaultConfig(s.SetSpeed))
	if err != nil {
		return nil, err
	}

	fr := newFlightRecorder()
	fr.sink = flightSinkFrom(ctx)
	res := new(Result) // declared early so the estimate hook can read EstimateSteps
	pred.SetTransitionHook(func(takeover bool) {
		if takeover {
			fr.emit(EventRLSTakeover, 0, "estimates replacing the measurement channel")
		} else {
			fr.emit(EventRLSRelease, float64(res.EstimateSteps), "trusted measurements resumed")
		}
	})

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
	var snapshot estimate.RecoveryEstimator
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
		m := measure(k, d, dv)
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
				*pred = snapshot
				for pred.Wall() < k-1 {
					pred.CatchUp()
				}
			}
			if ev.Challenged && ev.State == cra.Clear {
				snapshot, haveSnapshot = *pred, true
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

// measureFunc produces the (possibly attacked) step measurement for the
// true relative state.
type measureFunc func(k int, d, dv float64) radar.Measurement

// buildMeasurePipeline selects between the fast closed-form pipeline
// (radar.FrontEnd + measurement-level attack transform) and the
// high-fidelity signal pipeline (radar.SignalFrontEnd + sweep-level attack
// transform), returning the measurement closure and the detector's
// quiet-channel threshold. The closure enters radar_synthesis for sweep
// synthesis and corruption and, on the signal pipeline, beat_extraction
// for the beat-spectrum estimator; it returns with that phase still open
// so the caller's next phase shares the boundary.
func buildMeasurePipeline(s Scenario, atk attack.Attack, src *noise.Source, tr *phaseTracker) (measureFunc, float64, error) {
	if !s.SignalLevel {
		fe, err := radar.NewFrontEnd(s.Radar, s.Schedule, src)
		if err != nil {
			return nil, 0, err
		}
		return func(k int, d, dv float64) radar.Measurement {
			tr.enter(phaseRadarSynthesis)
			return atk.Corrupt(k, fe.Observe(k, d, dv))
		}, fe.ZeroThreshold(), nil
	}
	samples := s.SignalSamples
	if samples == 0 {
		samples = 128
	}
	ext := s.Extractor
	if ext == nil {
		ext = radar.FFTExtractor{}
	}
	sfe, err := radar.NewSignalFrontEnd(s.Radar, s.Schedule, ext, samples, src)
	if err != nil {
		return nil, 0, err
	}
	sweepAtk, signalCapable := atk.(radar.SweepCorruptor)
	return func(k int, d, dv float64) radar.Measurement {
		tr.enter(phaseRadarSynthesis)
		sweep, challenge := sfe.ObserveSweep(k, d, dv)
		if signalCapable {
			sweep = sweepAtk.CorruptSweep(k, sweep, challenge)
		}
		tr.enter(phaseBeatExtraction)
		m := sfe.Measure(k, sweep, challenge)
		if !signalCapable {
			// Attacks without a physical-channel model (e.g. the fast
			// adversary) corrupt the extracted measurement instead.
			m = atk.Corrupt(k, m)
		}
		return m
	}, sfe.ZeroThreshold(), nil
}
