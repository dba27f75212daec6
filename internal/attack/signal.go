package attack

import (
	"fmt"

	"safesense/internal/radar"
)

// Signal-level attack channel: the same adversaries expressed as transforms
// of the dechirped sweep the receiver digitizes, for use with
// radar.SignalFrontEnd. Both types also keep their measurement-level
// Corrupt implementations so the fast closed-form pipeline works unchanged.

var (
	_ radar.SweepCorruptor = (*DoS)(nil)
	_ radar.SweepCorruptor = (*DelayInjection)(nil)
)

// CorruptSweep implements radar.SweepCorruptor: within the attack window
// the jammer's Eqn 10 received power floods both sweep segments as
// broadband noise, regardless of whether the radar transmitted — which is
// exactly what blinds the beat extractor and what lights up a challenge
// instant. The noise is added to s in place.
//
//safesense:hotpath
func (a *DoS) CorruptSweep(k int, s radar.Sweep, challenge bool) radar.Sweep {
	if !a.Active(k) {
		return s
	}
	return radar.AddNoiseSweep(s, a.midJamW, a.src)
}

// CorruptSweep implements radar.SweepCorruptor for the spoofer. During
// normal instants the true reflection is replaced by its frequency-shifted
// counterfeit: the injected round-trip delay tau maps to a beat shift
// df = tau * Bs / Ts on both slopes, which the receiver reads as
// +OffsetMeters of range with unchanged Doppler. At a challenge instant
// the radar transmitted nothing, but the spoofer's replay chain is still
// radiating a counterfeit tone (derived from the previous probe), which
// the CRA detector sees as energy on a supposedly quiet channel. Both
// transform s in place.
//
//safesense:hotpath
func (a *DelayInjection) CorruptSweep(k int, s radar.Sweep, challenge bool) radar.Sweep {
	if !a.Active(k) {
		return s
	}
	if challenge {
		// Counterfeit of the previous probe: a tone at a mid-range beat
		// plus the injected shift, at the spoofer's one-way link power.
		return a.leak.Add(s, a.leakPower())
	}
	return a.shift.Mix(s)
}

// FastAdversary is the adversary the paper's conclusion concedes defeats
// CRA: one "with adequate resources [to] sample the incoming signals from
// active sensors faster than the defender". It knows each challenge before
// it must respond and its hardware is fast enough to go silent within the
// same step, so challenge instants read clean while normal instants carry
// the spoofed offset — the detector never fires. It exists to reproduce
// the stated limitation (see the limitation tests and ablation A5), not to
// improve on it.
type FastAdversary struct {
	Window Window
	// OffsetM is the spoofed distance offset applied outside challenges.
	OffsetM float64
}

// NewFastAdversary validates and builds the CRA-evading spoofer.
func NewFastAdversary(w Window, offsetM float64) (*FastAdversary, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if offsetM <= 0 {
		return nil, fmt.Errorf("attack: offset must be positive, got %v m", offsetM)
	}
	return &FastAdversary{Window: w, OffsetM: offsetM}, nil
}

// Active implements Attack.
func (a *FastAdversary) Active(k int) bool { return a.Window.Contains(k) }

// Name implements Attack.
func (a *FastAdversary) Name() string { return "fast-adversary" }

// Corrupt implements Attack: silent at challenge instants, spoofing
// everywhere else.
func (a *FastAdversary) Corrupt(k int, clean radar.Measurement) radar.Measurement {
	if !a.Active(k) || clean.Challenge {
		return clean
	}
	out := clean
	out.Distance = clean.Distance + a.OffsetM
	return out
}
