package radar

import (
	"errors"
	"math"

	"safesense/internal/noise"
	"safesense/internal/prbs"
)

// Measurement is one per-step radar output as delivered to the vehicle's
// control stack (and to the CRA detector before it).
type Measurement struct {
	// K is the discrete time step (seconds in the paper's case study).
	K int
	// Distance and RelVelocity are the radar's reported range (m) and
	// range rate (m/s, positive when the gap grows).
	Distance, RelVelocity float64
	// Power is the average receiver output power over the cycle (W). The
	// CRA detector thresholds this at challenge instants.
	Power float64
	// Challenge records whether the radar suppressed its transmission at
	// this step (k in T_c).
	Challenge bool
}

// IsZero reports whether the receiver output is indistinguishable from the
// noise floor — the expected response at an unattacked challenge instant.
// threshold is an absolute power level in watts.
func (m Measurement) IsZero(threshold float64) bool {
	return m.Power <= threshold
}

// ClosedFormModel maps the link-budget SNR into Gaussian measurement noise
// for the fast measurement pipeline: the standard deviations are anchored
// at a reference distance and scale as 1/sqrt(SNR), i.e. quadratically in
// distance.
type ClosedFormModel struct {
	// DistStdRef / VelStdRef are the 1-sigma distance (m) and range-rate
	// (m/s) errors at RefDist.
	DistStdRef, VelStdRef float64
	// RefDist is the anchoring distance in meters.
	RefDist float64
}

// DefaultClosedFormModel matches LRR2-class measurement accuracy: about
// ±0.5 m range and ±0.12 m/s range-rate at 100 m, degrading with the
// link-budget SNR at longer range. These figures matter for the recovery
// experiments: the RLS estimator free-runs for ~2 minutes, so its distance
// error budget is the level and slope noise of the pre-attack fit
// integrated over the whole window.
func DefaultClosedFormModel() ClosedFormModel {
	return ClosedFormModel{DistStdRef: 0.5, VelStdRef: 0.12, RefDist: 100}
}

// FrontEnd is the CRA-modified radar front end: a Params set, a challenge
// schedule driving the pseudo-random binary modulation m(t), and a noise
// source. It produces the *clean* (pre-attack) measurement stream; attacks
// from internal/attack transform its output the way a jammer or spoofer
// transforms the physical channel.
type FrontEnd struct {
	Schedule prbs.Schedule

	params Params
	model  ClosedFormModel
	src    *noise.Source

	// Range-independent terms of the link budget, fixed at construction:
	// Eqn 9's constants for the target RCS, the receiver noise floor and
	// the SNR at model.RefDist.
	budget     linkBudget
	noiseFloor float64
	refSNR     float64
}

// NewFrontEnd validates the radar parameters and builds a front end.
func NewFrontEnd(p Params, sched prbs.Schedule, src *noise.Source) (*FrontEnd, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if sched == nil {
		return nil, errors.New("radar: nil challenge schedule")
	}
	if src == nil {
		return nil, errors.New("radar: nil noise source")
	}
	f := &FrontEnd{
		Schedule:   sched,
		params:     p,
		model:      DefaultClosedFormModel(),
		src:        src,
		budget:     p.linkBudget(p.TargetRCS),
		noiseFloor: p.NoiseFloor(),
	}
	f.refSNR = f.budget.receivedPower(f.model.RefDist) / f.noiseFloor
	return f, nil
}

// link returns the received power at in-range distance d and the
// distance and velocity noise standard deviations the closed-form model
// assigns it: anchored at model.RefDist and scaling as 1/sqrt(SNR).
func (f *FrontEnd) link(d float64) (pr, stdD, stdV float64) {
	pr = f.budget.receivedPower(d)
	scale := math.Sqrt(f.refSNR / (pr / f.noiseFloor))
	return pr, f.model.DistStdRef * scale, f.model.VelStdRef * scale
}

// Observe produces the step-k measurement for a true target at distance
// dTrue with range rate vRelTrue using the closed-form pipeline.
//
// At a challenge instant the radar transmits nothing, so absent an attack
// the receiver reports (0, 0) at the noise floor — the zero spikes of the
// paper's figures. Outside the operating range the radar reports the range
// limit at the noise floor (no detectable return).
//
//safesense:hotpath
func (f *FrontEnd) Observe(k int, dTrue, vRelTrue float64) Measurement {
	challenge := f.Schedule.Challenge(k)
	if challenge {
		return Measurement{
			K:         k,
			Challenge: true,
			Power:     f.noisePowerSample(),
		}
	}
	if !f.params.InRange(dTrue) {
		// No return: clamp the report to the range limit.
		d := math.Min(math.Max(dTrue, f.params.MinRangeM), f.params.MaxRangeM)
		return Measurement{K: k, Distance: d, RelVelocity: 0, Power: f.noisePowerSample()}
	}
	pr, stdD, stdV := f.link(dTrue)
	return Measurement{
		K:           k,
		Distance:    f.src.Gaussian(dTrue, stdD),
		RelVelocity: f.src.Gaussian(vRelTrue, stdV),
		Power:       pr,
	}
}

// noisePowerSample draws a realization of the receiver's noise-floor power
// estimate (chi-squared spread around NoiseFloor), so challenge instants
// are near zero but not exactly zero, as in real hardware.
func (f *FrontEnd) noisePowerSample() float64 {
	nf := f.noiseFloor
	v := f.src.Gaussian(nf, nf/4)
	if v < 0 {
		v = 0
	}
	return v
}

// ZeroThreshold returns the detector's power threshold separating "no
// transmission, quiet channel" from "energy present": a safe multiple of
// the noise floor, far below any in-range target return or jammer.
func (f *FrontEnd) ZeroThreshold() float64 {
	return 10 * f.noiseFloor
}
