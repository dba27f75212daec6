// Package sonar models the ultrasonic parking sensor — the third active
// sensor class the paper's attack and defense cover ("active sensors such
// as ultrasonic, radar, or lidar are under Denial of Service attack or
// delay injection based spoofing attack"). An ultrasonic ranger measures
// round-trip time of flight of an acoustic chirp; delay-injection shifts
// the echo later (phantom extra distance), and jamming floods the
// transducer. The CRA contract is identical to the radar's: at challenge
// instants the transducer stays silent, so any received acoustic energy
// reveals an attacker.
package sonar

import (
	"errors"
	"fmt"
	"math"

	"safesense/internal/noise"
	"safesense/internal/prbs"
)

// SpeedOfSound is the propagation speed in air at 20 °C, m/s.
const SpeedOfSound = 343.0

// Params describes the ultrasonic ranger.
type Params struct {
	// CarrierHz is the transducer frequency (typically 40 kHz).
	CarrierHz float64
	// MinRangeM / MaxRangeM bound the usable range (parking sensors:
	// ~0.2–4.5 m).
	MinRangeM, MaxRangeM float64
	// TimingStdSec is the 1-sigma echo-timing jitter; range noise is
	// TimingStdSec * SpeedOfSound / 2.
	TimingStdSec float64
	// EchoLevel and NoiseLevel are received acoustic levels (arbitrary
	// linear power units) for a nominal echo and a quiet channel.
	EchoLevel, NoiseLevel float64
}

// DefaultParams returns a typical automotive parking sensor.
func DefaultParams() Params {
	return Params{
		CarrierHz:    40e3,
		MinRangeM:    0.2,
		MaxRangeM:    4.5,
		TimingStdSec: 30e-6, // ~5 mm of range noise
		EchoLevel:    1.0,
		NoiseLevel:   1e-4,
	}
}

// Validate checks the parameter set.
func (p Params) Validate() error {
	switch {
	case p.CarrierHz <= 0:
		return errors.New("sonar: carrier must be positive")
	case p.MinRangeM <= 0 || p.MaxRangeM <= p.MinRangeM:
		return fmt.Errorf("sonar: invalid range bounds [%v, %v]", p.MinRangeM, p.MaxRangeM)
	case p.TimingStdSec < 0:
		return errors.New("sonar: timing jitter must be non-negative")
	case p.EchoLevel <= p.NoiseLevel:
		return errors.New("sonar: echo level must exceed the noise level")
	}
	return nil
}

// TimeOfFlight returns the round-trip delay for a target at distance d.
func TimeOfFlight(d float64) float64 { return 2 * d / SpeedOfSound }

// DistanceFromTOF inverts TimeOfFlight.
func DistanceFromTOF(tof float64) float64 { return tof * SpeedOfSound / 2 }

// Measurement is one ranger sample.
type Measurement struct {
	K int
	// Distance is the reported range (m); 0 with a quiet Level at
	// challenge instants or when no echo returns.
	Distance float64
	// Level is the received acoustic level the CRA detector thresholds.
	Level float64
	// Challenge marks suppressed-transmission instants.
	Challenge bool
}

// FrontEnd is the CRA-modified ultrasonic front end.
type FrontEnd struct {
	Params   Params
	Schedule prbs.Schedule
	src      *noise.Source
}

// NewFrontEnd validates and builds the front end.
func NewFrontEnd(p Params, sched prbs.Schedule, src *noise.Source) (*FrontEnd, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if sched == nil {
		return nil, errors.New("sonar: nil challenge schedule")
	}
	if src == nil {
		return nil, errors.New("sonar: nil noise source")
	}
	return &FrontEnd{Params: p, Schedule: sched, src: src}, nil
}

// ZeroThreshold is the quiet-channel level boundary.
func (f *FrontEnd) ZeroThreshold() float64 { return 10 * f.Params.NoiseLevel }

// Observe produces the step-k measurement for a true obstacle at distance
// d. Challenge instants transmit nothing and read the noise floor.
func (f *FrontEnd) Observe(k int, dTrue float64) Measurement {
	if f.Schedule.Challenge(k) {
		return Measurement{K: k, Challenge: true, Level: f.noiseLevel()}
	}
	if dTrue < f.Params.MinRangeM || dTrue > f.Params.MaxRangeM {
		return Measurement{K: k, Level: f.noiseLevel()}
	}
	tof := TimeOfFlight(dTrue) + f.src.Gaussian(0, f.Params.TimingStdSec)
	// Echo level falls with spherical spreading ~1/d^2 each way, i.e.
	// ~1/d^4 in power; normalize at 1 m. (d*d)*(d*d) is math.Pow(d, 4)
	// bit for bit (see radar's receivedPower).
	d := math.Max(dTrue, 0.2)
	d2 := d * d
	level := f.Params.EchoLevel / (d2 * d2)
	return Measurement{K: k, Distance: DistanceFromTOF(tof), Level: level}
}

func (f *FrontEnd) noiseLevel() float64 {
	v := f.src.Gaussian(f.Params.NoiseLevel, f.Params.NoiseLevel/4)
	if v < 0 {
		v = 0
	}
	return v
}

// DelayEcho replays the echo with extra delay, inflating the reported
// distance — the parking-sensor variant of the radar's delay injection
// (a car appears farther while reversing). Its electronics leak into
// challenge windows exactly like the radar spoofer's.
type DelayEcho struct {
	Start, End int
	// ExtraM is the phantom extra distance.
	ExtraM float64
	// LeakLevel is the acoustic level the spoofer radiates during a
	// challenge instant (zero means a strong 0.1).
	LeakLevel float64
}

// NewDelayEcho validates and builds the spoofer.
func NewDelayEcho(start, end int, extraM float64) (*DelayEcho, error) {
	if end < start {
		return nil, fmt.Errorf("sonar: window [%d, %d] inverted", start, end)
	}
	if extraM <= 0 {
		return nil, errors.New("sonar: extra distance must be positive")
	}
	return &DelayEcho{Start: start, End: end, ExtraM: extraM, LeakLevel: 0.1}, nil
}

// Active implements Attack.
func (a *DelayEcho) Active(k int) bool { return k >= a.Start && k <= a.End }

// Name implements Attack.
func (a *DelayEcho) Name() string { return "delay-echo" }

// Corrupt implements Attack.
func (a *DelayEcho) Corrupt(k int, clean Measurement) Measurement {
	if !a.Active(k) {
		return clean
	}
	out := clean
	if clean.Challenge {
		out.Level = clean.Level + a.LeakLevel
		out.Distance = a.ExtraM
		return out
	}
	out.Distance = clean.Distance + a.ExtraM
	return out
}
