package attack

import (
	"errors"
	"fmt"
	"math"

	"safesense/internal/noise"
	"safesense/internal/radar"
	"safesense/internal/units"
)

// Window is a closed attack interval [Start, End] in discrete steps,
// matching the paper's finite attack duration [k1, kn].
type Window struct {
	Start, End int
}

// Contains reports whether step k falls inside the window.
func (w Window) Contains(k int) bool { return k >= w.Start && k <= w.End }

// Validate checks the window is well formed.
func (w Window) Validate() error {
	if w.End < w.Start {
		return fmt.Errorf("attack: window end %d before start %d", w.End, w.Start)
	}
	return nil
}

// Attack corrupts the radar measurement stream the way a physical channel
// attack would: it observes the clean measurement and returns what the
// receiver actually reports under attack.
type Attack interface {
	// Active reports whether the attack is running at step k.
	Active(k int) bool
	// Corrupt transforms the clean measurement at step k. The clean
	// measurement carries the Challenge flag so the attack model can
	// honour the physics: a jammer emits regardless of challenges, and a
	// spoofer's hardware delay makes it emit into challenge silence too.
	Corrupt(k int, clean radar.Measurement) radar.Measurement
	// Name identifies the attack in traces and benchmark output.
	Name() string
}

// None is the no-attack baseline.
type None struct{}

// Active implements Attack.
func (None) Active(int) bool { return false }

// Corrupt implements Attack.
func (None) Corrupt(_ int, clean radar.Measurement) radar.Measurement { return clean }

// Name implements Attack.
func (None) Name() string { return "none" }

// DoS is the jamming attack: within the window the receiver is flooded
// with jammer energy, so reported distance and relative velocity are
// meaningless large values (the y^a = r ∈ R^p term of Eqn 4) and the
// receiver power is the jammer's, which also floods challenge instants —
// the signature CRA detects.
type DoS struct {
	Window Window
	// CorruptionScale sets the magnitude of the garbage measurements the
	// saturated receiver reports; the paper's Figure 2a shows values up
	// to ~240 against a true range near 100 m. Zero means 240.
	CorruptionScale float64

	src *noise.Source
	// The jammer's Eqn 10 terms for the victim radar, fixed at
	// construction: the distance-independent budget, and the jamming
	// power at the victim's nominal mid-range distance.
	jam     jamBudget
	midJamW float64
}

// NewDoS validates and builds a DoS attack by jammer j on a victim radar
// with parameters p, drawing corruption values from src.
func NewDoS(w Window, j Jammer, p radar.Params, src *noise.Source) (*DoS, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if err := j.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, errors.New("attack: nil noise source")
	}
	jam := j.budget(p)
	return &DoS{
		Window:          w,
		CorruptionScale: 240,
		src:             src,
		jam:             jam,
		midJamW:         jam.receivedPower((p.MinRangeM + p.MaxRangeM) / 2),
	}, nil
}

// Active implements Attack.
func (a *DoS) Active(k int) bool { return a.Window.Contains(k) }

// Name implements Attack.
func (a *DoS) Name() string { return "dos" }

// Corrupt implements Attack.
func (a *DoS) Corrupt(k int, clean radar.Measurement) radar.Measurement {
	if !a.Active(k) {
		return clean
	}
	// The jammer's energy reaches the receiver no matter what the radar
	// transmitted. Distance to the self-screening jammer is the true
	// target distance when available; during a challenge the clean
	// measurement carries no range, so use a nominal mid-range distance —
	// the detector only needs the power to be far above the floor.
	jam := a.midJamW
	if d := clean.Distance; !(d <= 0) { // a NaN distance still yields a NaN power
		jam = a.jam.receivedPower(d)
	}
	out := clean
	out.Power = clean.Power + jam
	// Saturated receiver: beat extraction locks onto jammer noise,
	// producing large erratic values.
	out.Distance = a.src.Uniform(0.5, 1) * a.CorruptionScale
	out.RelVelocity = a.src.Uniform(-1, 1) * a.CorruptionScale / 2
	return out
}

// DelayInjection is the spoofing attack: within the window the adversary
// replays a counterfeit reflection with an extra two-way delay tau, which
// the FMCW receiver converts into a distance offset of c*tau/2 meters
// (the paper uses +6 m). The spoofer's hardware needs a strictly positive
// processing time, so at a challenge instant — when the radar transmitted
// nothing — the spoofer is still emitting a counterfeit derived from the
// previous probe, which is exactly what the CRA detector catches.
type DelayInjection struct {
	Window Window
	// KnowsSchedule marks a "smart adversary" who tries to stay silent at
	// challenge instants. Per Section 5.2 the nonzero hardware delay
	// defeats this: the counterfeit of the previous probe still lands in
	// the challenge window, so detection is unaffected. Modelled as a
	// reduced — but still above-threshold — leak power.
	KnowsSchedule bool

	// Fixed at construction from the injected two-way delay tau and the
	// victim radar: the distance offset c*tau/2, the victim's maximum
	// range, the counterfeit power at mid-range, the beat shift
	// df = tau*Bs/Ts as a phasor table, and the counterfeit tone at the
	// mid-range beat plus df.
	offsetM   float64
	maxRangeM float64
	leakW     float64
	shift     radar.Tone
	leak      radar.Tone
}

// NewDelayInjection builds the spoofer with the paper's +6 m offset when
// extraMeters is 6.
func NewDelayInjection(w Window, extraMeters float64, p radar.Params) (*DelayInjection, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if extraMeters <= 0 {
		return nil, fmt.Errorf("attack: delay offset must be positive, got %v m", extraMeters)
	}
	tau := units.RoundTripDelay(extraMeters)
	df := tau * p.SweepBandwidthHz / p.SweepTimeSec
	mid := (p.MinRangeM + p.MaxRangeM) / 2
	fb, _ := p.BeatFrequencies(mid, 0)
	return &DelayInjection{
		Window:    w,
		offsetM:   units.DelayToDistance(tau),
		maxRangeM: p.MaxRangeM,
		leakW:     counterfeitPower(p, mid),
		shift:     radar.NewTone(df),
		leak:      radar.NewTone(fb + df),
	}, nil
}

// OffsetMeters returns the distance offset the injected delay produces.
func (a *DelayInjection) OffsetMeters() float64 { return a.offsetM }

// leakPower is the counterfeit power reaching the victim at a challenge
// instant.
func (a *DelayInjection) leakPower() float64 {
	if a.KnowsSchedule {
		return a.leakW / 10 // partially suppressed, still far above the floor
	}
	return a.leakW
}

// Active implements Attack.
func (a *DelayInjection) Active(k int) bool { return a.Window.Contains(k) }

// Name implements Attack.
func (a *DelayInjection) Name() string { return "delay" }

// Corrupt implements Attack.
func (a *DelayInjection) Corrupt(k int, clean radar.Measurement) radar.Measurement {
	if !a.Active(k) {
		return clean
	}
	out := clean
	if clean.Challenge {
		// The radar transmitted nothing, but the spoofer's replay chain
		// (delayed copy of the previous probe) is still radiating. Its
		// energy reaches the victim over a one-way Friis link, orders of
		// magnitude above any passive reflection.
		out.Power = clean.Power + a.leakPower()
		out.Distance = a.maxRangeM + a.offsetM
		out.RelVelocity = 0
		return out
	}
	// Normal instants: the counterfeit mimics the true reflection with
	// extra delay, shifting the reported range.
	out.Distance = clean.Distance + a.OffsetMeters()
	return out
}

// counterfeitPower returns the power a victim radar with parameters p
// receives from the spoofer's active transmitter at distance d: a one-way
// Friis link assuming the adversary radiates at the radar's own transmit
// power through a matched antenna — the "similar characteristics as the
// original reflected signal" hardware of Section 4.1.
func counterfeitPower(p radar.Params, d float64) float64 {
	g := units.DBToLinear(p.AntennaGainDBi)
	lam := p.WavelengthM
	return p.TransmitPowerW * g * g * lam * lam /
		(math.Pow(4*math.Pi, 2) * d * d)
}
