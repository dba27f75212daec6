// Package radar models the 77 GHz FMCW long-range automotive radar of the
// paper's Section 4.1: triangular frequency-modulated continuous-wave
// ranging with beat-frequency extraction (Eqns 5–8), the received-power
// link budget (Eqn 9), dechirped baseband signal synthesis, and the three
// measurement pipelines (closed-form, FFT periodogram, root-MUSIC) the
// simulation and ablations use. The challenge-response front end that
// suppresses transmission at pseudo-random instants lives here too, since
// the paper implements CRA by modifying the radar's modulation unit.
package radar

import (
	"errors"
	"fmt"
	"math"

	"safesense/internal/units"
)

// Params holds the physical radar parameters. The zero value is not valid;
// start from BoschLRR2() and override as needed.
type Params struct {
	// CarrierHz is the carrier frequency (77 GHz for the LRR2).
	CarrierHz float64
	// SweepBandwidthHz is Bs, the FMCW sweep bandwidth (150 MHz).
	SweepBandwidthHz float64
	// SweepTimeSec is Ts, the duration of one sweep slope (2 ms).
	SweepTimeSec float64
	// WavelengthM is lambda (3.89 mm at 77 GHz).
	WavelengthM float64
	// TransmitPowerW is Pt, the maximum transmitted power (10 mW).
	TransmitPowerW float64
	// AntennaGainDBi is G (28 dBi).
	AntennaGainDBi float64
	// SystemLossDB is L (0.10 dB).
	SystemLossDB float64
	// OperatingBandwidthHz is B, the receiver operating bandwidth used in
	// the jamming power ratio (matched to the sweep bandwidth).
	OperatingBandwidthHz float64
	// MinRangeM and MaxRangeM bound the radar's operating range
	// (2–200 m for the Bosch LRR2).
	MinRangeM, MaxRangeM float64
	// SampleRateHz is the complex baseband sample rate of the dechirped
	// receiver output used by the signal-level pipelines.
	SampleRateHz float64
	// NoiseFigureDB is the receiver noise figure applied on top of the
	// thermal floor kT * SampleRateHz.
	NoiseFigureDB float64
	// TargetRCS is sigma, the assumed scattering cross-section of the
	// tracked vehicle in m^2.
	TargetRCS float64
}

// BoschLRR2 returns the parameter set of the Bosch LRR2 long-range radar
// used in the paper's case study.
func BoschLRR2() Params {
	return Params{
		CarrierHz:            77 * units.GHz,
		SweepBandwidthHz:     150 * units.MHz,
		SweepTimeSec:         2e-3,
		WavelengthM:          3.89 * units.Millimeter,
		TransmitPowerW:       10e-3,
		AntennaGainDBi:       28,
		SystemLossDB:         0.10,
		OperatingBandwidthHz: 150 * units.MHz,
		MinRangeM:            2,
		MaxRangeM:            200,
		SampleRateHz:         1 * units.MHz,
		NoiseFigureDB:        10,
		TargetRCS:            10,
	}
}

// Validate checks the parameter set for physical consistency.
func (p Params) Validate() error {
	switch {
	case p.CarrierHz <= 0:
		return errors.New("radar: carrier frequency must be positive")
	case p.SweepBandwidthHz <= 0:
		return errors.New("radar: sweep bandwidth must be positive")
	case p.SweepTimeSec <= 0:
		return errors.New("radar: sweep time must be positive")
	case p.WavelengthM <= 0:
		return errors.New("radar: wavelength must be positive")
	case p.TransmitPowerW <= 0:
		return errors.New("radar: transmit power must be positive")
	case p.MinRangeM <= 0 || p.MaxRangeM <= p.MinRangeM:
		return fmt.Errorf("radar: invalid range bounds [%v, %v]", p.MinRangeM, p.MaxRangeM)
	case p.SampleRateHz <= 0:
		return errors.New("radar: sample rate must be positive")
	case p.TargetRCS <= 0:
		return errors.New("radar: target RCS must be positive")
	}
	// The highest beat frequency must be sampleable.
	fbMax, _ := p.BeatFrequencies(p.MaxRangeM, 0)
	if fbMax >= p.SampleRateHz/2 {
		return fmt.Errorf("radar: max beat frequency %.0f Hz exceeds Nyquist %.0f Hz", fbMax, p.SampleRateHz/2)
	}
	return nil
}

// RangeSlope returns the range-to-beat-frequency slope 2*Bs/(Ts*c) in
// Hz per meter.
func (p Params) RangeSlope() float64 {
	return 2 * p.SweepBandwidthHz / (p.SweepTimeSec * units.SpeedOfLight)
}

// DopplerShift returns the Doppler frequency 2*vRel/lambda in Hz for a
// range rate vRel (m/s, positive when the target recedes).
func (p Params) DopplerShift(vRel float64) float64 {
	return 2 * vRel / p.WavelengthM
}

// BeatFrequencies returns the two beat frequencies of the triangular FMCW
// waveform for a target at distance d moving with range rate vRel
// (paper Eqns 5–6):
//
//	fb+ = (2 d / c) (Bs / Ts) - 2 vRel / lambda   (up-slope)
//	fb- = (2 d / c) (Bs / Ts) + 2 vRel / lambda   (down-slope)
func (p Params) BeatFrequencies(d, vRel float64) (fbUp, fbDown float64) {
	fr := d * p.RangeSlope()
	fd := p.DopplerShift(vRel)
	return fr - fd, fr + fd
}

// FromBeats inverts BeatFrequencies (paper Eqns 7–8):
//
//	d    = Ts c (fb+ + fb-) / (4 Bs)
//	vRel = lambda (fb- - fb+) / 4
func (p Params) FromBeats(fbUp, fbDown float64) (d, vRel float64) {
	d = p.SweepTimeSec * units.SpeedOfLight * (fbUp + fbDown) / (4 * p.SweepBandwidthHz)
	vRel = p.WavelengthM * (fbDown - fbUp) / 4
	return d, vRel
}

// ReceivedPower returns Pr per the radar range equation (paper Eqn 9):
//
//	Pr = Pt G^2 lambda^2 sigma / ((4 pi)^3 d^4 L)
func (p Params) ReceivedPower(d, sigma float64) float64 {
	if d <= 0 {
		return math.Inf(1)
	}
	return p.linkBudget(sigma).receivedPower(d)
}

// linkBudget holds the range-independent terms of Eqn 9.
type linkBudget struct {
	num     float64 // Pt G^2 lambda^2 sigma
	fourPi3 float64 // (4 pi)^3
	loss    float64 // L
}

func (p Params) linkBudget(sigma float64) linkBudget {
	g := units.DBToLinear(p.AntennaGainDBi)
	return linkBudget{
		num:     p.TransmitPowerW * g * g * p.WavelengthM * p.WavelengthM * sigma,
		fourPi3: math.Pow(4*math.Pi, 3),
		loss:    units.DBToLinear(p.SystemLossDB),
	}
}

// receivedPower evaluates Eqn 9 at distance d > 0. d^4 is (d*d)*(d*d):
// math.Pow raises to an integer power by repeated squaring of the
// mantissa with exact power-of-two scaling, so the two agree bit for
// bit for every normal d (TestPow4MatchesMathPow); the left-to-right
// product d*d*d*d rounds differently.
func (b linkBudget) receivedPower(d float64) float64 {
	d2 := d * d
	return b.num / (b.fourPi3 * (d2 * d2) * b.loss)
}

// NoiseFloor returns the receiver noise power in the sampled baseband
// bandwidth: kT * SampleRateHz * NF.
func (p Params) NoiseFloor() float64 {
	return units.ThermalNoisePower(units.StandardNoiseTemp, p.SampleRateHz) *
		units.DBToLinear(p.NoiseFigureDB)
}

// SNRdB returns the per-sample signal-to-noise ratio of the dechirped
// receiver output for a target at distance d with the configured RCS.
func (p Params) SNRdB(d float64) float64 {
	return units.LinearToDB(p.ReceivedPower(d, p.TargetRCS) / p.NoiseFloor())
}

// InRange reports whether a distance lies within the radar's operating
// range.
func (p Params) InRange(d float64) bool {
	return d >= p.MinRangeM && d <= p.MaxRangeM
}

// MaxUnambiguousBeat returns the largest beat frequency the radar will
// report, corresponding to MaxRangeM plus the largest resolvable Doppler.
func (p Params) MaxUnambiguousBeat() float64 {
	fb, _ := p.BeatFrequencies(p.MaxRangeM, -50)
	_, fb2 := p.BeatFrequencies(p.MaxRangeM, 50)
	return math.Max(fb, fb2)
}
