package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"safesense/internal/acc"
	"safesense/internal/attack"
	"safesense/internal/cra"
	"safesense/internal/estimate"
	"safesense/internal/noise"
	"safesense/internal/radar"
	"safesense/internal/sim"
	"safesense/internal/trace"
	"safesense/internal/vehicle"
)

// layer names one row of the per-layer table: a call into one of the
// closed loop's packages, timed by a span the benchmark records itself.
type layer uint8

const (
	layerRadarObserve     layer = iota // radar.FrontEnd.Observe (closed form)
	layerAttackCorrupt                 // attack.Attack.Corrupt (measurement level)
	layerRadarSweep                    // SignalFrontEnd.ObserveSweep + attack CorruptSweep
	layerRadarExtract                  // SignalFrontEnd.Measure (beat extraction)
	layerCRAStep                       // cra.Detector.Step
	layerEstimateObserve               // RecoveryEstimator.Observe
	layerEstimatePredict               // RecoveryEstimator.Predict
	layerEstimateSkip                  // RecoveryEstimator.SkipStep
	layerEstimateSnapshot              // RecoveryEstimator.Clone + rollback CatchUp
	layerACCStep                       // acc.Controller.Step
	layerVehicleStep                   // vehicle.State.Step (leader and follower)
	numLayers
	spanRun = numLayers // root span of one replayed run
)

var layerNames = [...]string{
	layerRadarObserve:     "radar.observe",
	layerAttackCorrupt:    "attack.corrupt",
	layerRadarSweep:       "radar.sweep",
	layerRadarExtract:     "radar.extract",
	layerCRAStep:          "cra.step",
	layerEstimateObserve:  "estimate.observe",
	layerEstimatePredict:  "estimate.predict",
	layerEstimateSkip:     "estimate.skip",
	layerEstimateSnapshot: "estimate.snapshot",
	layerACCStep:          "acc.step",
	layerVehicleStep:      "vehicle.step",
	spanRun:               "sim.replay",
}

// isEstimator reports whether l is a call into internal/estimate.
func (l layer) isEstimator() bool { return l >= layerEstimateObserve && l <= layerEstimateSnapshot }

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch; Parent indexes the enclosing span (-1 for a root)
// and Req numbers the replayed request the span belongs to.
type span struct {
	Name       layer
	Start, End int64
	Parent     int32
	Req        int32
}

// recorder keeps spans in memory for the whole traced run. With on
// false every method is a branch and nothing else, which is the
// untraced replay the tracing overhead is measured against. With
// allocs true it instead counts heap allocations per layer through
// runtime.ReadMemStats (too slow to combine with timing).
type recorder struct {
	on     bool
	allocs bool
	epoch  time.Time
	spans  []span
	root   int32
	req    int32

	ms      runtime.MemStats
	mallocs [numLayers]uint64
}

func newRecorder() *recorder { return &recorder{on: true, epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// beginRun opens the root span of request req.
func (r *recorder) beginRun(req int32) {
	if !r.on {
		return
	}
	r.root, r.req = int32(len(r.spans)), req
	r.spans = append(r.spans, span{Name: spanRun, Start: r.now(), Parent: -1, Req: req})
}

func (r *recorder) endRun() {
	if r.on {
		r.spans[r.root].End = r.now()
	}
}

// start returns the token a matching end call consumes.
func (r *recorder) start() int64 {
	switch {
	case r.on:
		return r.now()
	case r.allocs:
		runtime.ReadMemStats(&r.ms)
		return int64(r.ms.Mallocs)
	}
	return 0
}

func (r *recorder) end(l layer, tok int64) {
	switch {
	case r.on:
		r.spans = append(r.spans, span{Name: l, Start: tok, End: r.now(), Parent: r.root, Req: r.req})
	case r.allocs:
		runtime.ReadMemStats(&r.ms)
		r.mallocs[l] += r.ms.Mallocs - uint64(tok)
	}
}

// series is a replayed trace in sim's (T, Y) form.
type series struct {
	T []int
	Y []float64
}

func (s *series) add(k int, y float64) {
	s.T = append(s.T, k)
	s.Y = append(s.Y, y)
}

// replayOut holds the series a replay produced, for comparison with the
// sim.Result of the same scenario.
type replayOut struct {
	Measured, Estimated, Follower series
}

// newAttack mirrors the simulator's attack construction; DoS draws from
// src, so it must be built before the radar front end.
func newAttack(s sim.Scenario, src *noise.Source) (attack.Attack, error) {
	switch s.Attack.Kind {
	case sim.NoAttack:
		return attack.None{}, nil
	case sim.DoSAttack:
		return attack.NewDoS(s.Attack.Window, s.Attack.Jammer, s.Radar, src)
	case sim.DelayAttack:
		return attack.NewDelayInjection(s.Attack.Window, s.Attack.OffsetM, s.Radar)
	case sim.FastAdversaryAttack:
		return attack.NewFastAdversary(s.Attack.Window, s.Attack.OffsetM)
	}
	return nil, fmt.Errorf("replay: unknown attack kind %d", s.Attack.Kind)
}

// replay runs the scenario's closed loop through each layer's public
// functions in the simulator's order — including its noise draws — and
// records one span per layer call. It does no bookkeeping beyond the
// three series it returns, so the simulator's own work (phase timers,
// series, flight recorder) is what separates sim.Run from the sum of
// these spans.
func replay(s sim.Scenario, rec *recorder) (*replayOut, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	src := noise.NewSource(s.Seed)
	atk, err := newAttack(s, src)
	if err != nil {
		return nil, err
	}
	var (
		fe            *radar.FrontEnd
		sfe           *radar.SignalFrontEnd
		sweepAtk      radar.SweepCorruptor
		signalCapable bool
		threshold     float64
	)
	if s.SignalLevel {
		samples := s.SignalSamples
		if samples == 0 {
			samples = 128
		}
		ext := s.Extractor
		if ext == nil {
			ext = radar.FFTExtractor{}
		}
		if sfe, err = radar.NewSignalFrontEnd(s.Radar, s.Schedule, ext, samples, src); err != nil {
			return nil, err
		}
		threshold = sfe.ZeroThreshold()
		sweepAtk, signalCapable = atk.(radar.SweepCorruptor)
	} else {
		if fe, err = radar.NewFrontEnd(s.Radar, s.Schedule, src); err != nil {
			return nil, err
		}
		threshold = fe.ZeroThreshold()
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

	out := &replayOut{}
	leader := vehicle.State{Position: s.InitialGap, Velocity: s.LeaderSpeed}
	follower := vehicle.State{Position: 0, Velocity: s.SetSpeed}
	heldD, heldV := s.InitialGap, 0.0
	var snapshot *estimate.RecoveryEstimator
	for k := 0; k < s.Steps; k++ {
		la := s.LeaderProfile.Accel(k)
		if leader.Velocity <= 0 && la < 0 {
			la = 0
		}
		t := rec.start()
		leader = leader.Step(la, 1)
		rec.end(layerVehicleStep, t)
		d, dv := vehicle.Gap(leader, follower), vehicle.RelVelocity(leader, follower)
		out.Follower.add(k, follower.Velocity)

		var m radar.Measurement
		if sfe == nil {
			t = rec.start()
			m = fe.Observe(k, d, dv)
			rec.end(layerRadarObserve, t)
			t = rec.start()
			m = atk.Corrupt(k, m)
			rec.end(layerAttackCorrupt, t)
		} else {
			t = rec.start()
			sweep, challenge := sfe.ObserveSweep(k, d, dv)
			if signalCapable {
				sweep = sweepAtk.CorruptSweep(k, sweep, challenge)
			}
			rec.end(layerRadarSweep, t)
			t = rec.start()
			m = sfe.Measure(k, sweep, challenge)
			rec.end(layerRadarExtract, t)
			if !signalCapable {
				t = rec.start()
				m = atk.Corrupt(k, m)
				rec.end(layerAttackCorrupt, t)
			}
		}
		out.Measured.add(k, m.Distance)

		useD, useV := m.Distance, m.RelVelocity
		underAttack := false
		if s.Defended {
			t = rec.start()
			ev := det.Step(m)
			rec.end(layerCRAStep, t)
			underAttack = ev.State == cra.UnderAttack
			if ev.Detected && snapshot != nil {
				t = rec.start()
				pred = snapshot.Clone()
				for pred.Wall() < k-1 {
					pred.CatchUp()
				}
				rec.end(layerEstimateSnapshot, t)
			}
			if ev.Challenged && ev.State == cra.Clear {
				t = rec.start()
				snapshot = pred.Clone()
				rec.end(layerEstimateSnapshot, t)
			}
		}
		switch {
		case s.Defended && underAttack:
			if pred.Ready() {
				t = rec.start()
				useD, useV = pred.Predict(follower.Velocity)
				rec.end(layerEstimatePredict, t)
				out.Estimated.add(k, useD)
			} else {
				useD, useV = heldD, heldV
				t = rec.start()
				pred.SkipStep()
				rec.end(layerEstimateSkip, t)
			}
		case m.Challenge:
			useD, useV = heldD, heldV
			if s.Defended {
				t = rec.start()
				pred.SkipStep()
				rec.end(layerEstimateSkip, t)
			}
		default:
			if s.Defended {
				t = rec.start()
				err := pred.Observe(m.Distance, m.RelVelocity, follower.Velocity)
				rec.end(layerEstimateObserve, t)
				if err != nil {
					return nil, fmt.Errorf("replay: predictor: %w", err)
				}
			}
		}
		heldD, heldV = useD, useV

		t = rec.start()
		_, aF := ctl.Step(useD, useV, follower.Velocity, true)
		rec.end(layerACCStep, t)
		t = rec.start()
		follower = follower.Step(aF, 1)
		rec.end(layerVehicleStep, t)
	}
	return out, nil
}

// compareSeries checks the replay against the run's series bit for bit.
func compareSeries(res *sim.Result, out *replayOut) error {
	pairs := []struct {
		name string
		got  series
		want *trace.Series
	}{
		{sim.SeriesMeasured, out.Measured, res.Distance.Series(sim.SeriesMeasured)},
		{sim.SeriesEstimated, out.Estimated, res.Distance.Series(sim.SeriesEstimated)},
		{sim.SeriesFollower, out.Follower, res.Speeds.Series(sim.SeriesFollower)},
	}
	for _, p := range pairs {
		if p.want == nil {
			return fmt.Errorf("%s: run has no such series", p.name)
		}
		if len(p.want.T) != len(p.got.T) {
			return fmt.Errorf("%s: replay has %d samples, run has %d", p.name, len(p.got.T), len(p.want.T))
		}
		for i, k := range p.want.T {
			if k != p.got.T[i] || math.Float64bits(p.want.Y[i]) != math.Float64bits(p.got.Y[i]) {
				return fmt.Errorf("%s: sample %d differs: replay (k=%d, %v), run (k=%d, %v)",
					p.name, i, p.got.T[i], p.got.Y[i], k, p.want.Y[i])
			}
		}
	}
	return nil
}
