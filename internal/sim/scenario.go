// Package sim wires the full case study of the paper's Section 6 into a
// closed loop: leader vehicle -> FMCW radar front end (with CRA
// challenges) -> attack channel -> CRA detector -> RLS estimator -> ACC
// hierarchical controller -> follower vehicle. One Runner invocation
// reproduces one curve family of Figures 2–3; the Result carries the
// traces and the summary metrics of the Section 6.2 results paragraph.
package sim

import (
	"errors"
	"fmt"
	"math"

	"safesense/internal/attack"
	"safesense/internal/estimate"
	"safesense/internal/prbs"
	"safesense/internal/radar"
	"safesense/internal/units"
	"safesense/internal/vehicle"
)

// AttackKind selects the attack model of a scenario.
type AttackKind int

const (
	// NoAttack runs the clean baseline.
	NoAttack AttackKind = iota
	// DoSAttack jams the radar (Figures 2a, 3a).
	DoSAttack
	// DelayAttack spoofs a +offset distance (Figures 2b, 3b).
	DelayAttack
	// FastAdversaryAttack is the CRA-evading spoofer of the paper's
	// conclusion: it samples faster than the defender, goes silent at
	// challenge instants, and therefore defeats detection. Included to
	// reproduce the stated limitation.
	FastAdversaryAttack
)

// String renders the kind.
func (k AttackKind) String() string {
	switch k {
	case DoSAttack:
		return "dos"
	case DelayAttack:
		return "delay"
	case FastAdversaryAttack:
		return "fast-adversary"
	default:
		return "none"
	}
}

// AttackSpec describes the attack to mount.
type AttackSpec struct {
	Kind AttackKind
	// Window bounds the attack in steps (ignored for NoAttack).
	Window attack.Window
	// OffsetM is the delay-injection distance offset (DelayAttack only;
	// the paper uses 6 m).
	OffsetM float64
	// Jammer parameterizes the DoS attack (DoSAttack only).
	Jammer attack.Jammer
}

// Scenario is a full case-study configuration.
type Scenario struct {
	// Name labels the scenario in traces and reports.
	Name string
	// Steps is the simulated horizon (the paper runs 300 s at 1 s steps).
	Steps int
	// LeaderProfile drives the leader's acceleration.
	LeaderProfile vehicle.Profile
	// LeaderSpeed is the leader's initial speed (m/s).
	LeaderSpeed float64
	// SetSpeed is the follower's ACC set speed v_set (m/s).
	SetSpeed float64
	// InitialGap is the starting bumper distance (m).
	InitialGap float64
	// Radar parameterizes the FMCW front end.
	Radar radar.Params
	// Schedule supplies the CRA challenge instants.
	Schedule prbs.Schedule
	// Attack to mount.
	Attack AttackSpec
	// Defended enables the CRA detector + RLS estimator pipeline; when
	// false, corrupted measurements reach the controller unfiltered.
	Defended bool
	// SignalLevel selects the high-fidelity measurement pipeline: the
	// dechirped sweep is synthesized per step, the attack corrupts the
	// sweep itself, and the Extractor recovers the beat frequencies. The
	// default (false) uses the fast closed-form pipeline.
	SignalLevel bool
	// SignalSamples is the per-segment snapshot length of the signal
	// pipeline (zero means 128).
	SignalSamples int
	// Extractor recovers beat frequencies in signal-level mode (nil means
	// the FFT periodogram; the paper's root-MUSIC is radar.MUSICExtractor).
	Extractor radar.BeatExtractor
	// Predictor configures the RLS measurement predictor.
	Predictor estimate.PredictorConfig
	// Seed drives all randomness in the run.
	Seed int64
}

// Validate checks scenario consistency.
func (s Scenario) Validate() error {
	if s.Steps < 1 {
		return fmt.Errorf("sim: steps must be >= 1, got %d", s.Steps)
	}
	if s.LeaderProfile == nil {
		return errors.New("sim: nil leader profile")
	}
	// NaN slips through every ordered comparison below.
	for _, v := range [...]float64{s.LeaderSpeed, s.SetSpeed, s.InitialGap, s.Attack.OffsetM} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("sim: speeds, initial gap and attack offset must be finite")
		}
	}
	if s.LeaderSpeed < 0 || s.SetSpeed <= 0 {
		return errors.New("sim: speeds must be positive")
	}
	if s.InitialGap <= 0 {
		return errors.New("sim: initial gap must be positive")
	}
	if s.Schedule == nil {
		return errors.New("sim: nil challenge schedule")
	}
	if err := s.Radar.Validate(); err != nil {
		return err
	}
	switch s.Attack.Kind {
	case DoSAttack:
		if err := s.Attack.Window.Validate(); err != nil {
			return err
		}
		if err := s.Attack.Jammer.Validate(); err != nil {
			return err
		}
	case DelayAttack, FastAdversaryAttack:
		if err := s.Attack.Window.Validate(); err != nil {
			return err
		}
		if s.Attack.OffsetM <= 0 {
			return errors.New("sim: spoofing attack needs a positive offset")
		}
	}
	if s.SignalLevel && s.SignalSamples != 0 && s.SignalSamples < 32 {
		return errors.New("sim: signal pipeline needs at least 32 samples per segment")
	}
	return nil
}

// paperBase returns the shared Figure 2/3 configuration: 65 mph leader,
// v_set = 67 mph, 100 m initial gap, Bosch LRR2 radar, the pinned paper
// challenge schedule, CRA + RLS defense on.
func paperBase(name string) Scenario {
	return Scenario{
		Name:        name,
		Steps:       301, // k = 0..300 inclusive
		LeaderSpeed: units.MphToMps(65),
		SetSpeed:    units.MphToMps(67),
		InitialGap:  100,
		Radar:       radar.BoschLRR2(),
		Schedule:    prbs.PaperFigureSchedule(),
		Defended:    true,
		Predictor:   estimate.DefaultPredictorConfig(),
		Seed:        1,
	}
}

// constDecel is the Figure 2 leader: constant -0.1082 m/s^2.
func constDecel() vehicle.Profile { return vehicle.ConstantAccel{A: -0.1082} }

// decelAccel is the Figure 3 leader: -0.1082 m/s^2 then +0.012 m/s^2.
// The switch is placed mid-run at k = 150.
func decelAccel() vehicle.Profile {
	p, err := vehicle.NewPhasedProfile("decel-then-accel",
		vehicle.Phase{Until: 150, A: -0.1082},
		vehicle.Phase{Until: 1 << 30, A: 0.012},
	)
	if err != nil {
		panic(err) // static construction cannot fail
	}
	return p
}

// dosSpec is the Section 6.2 jamming attack: onset k = 182 to end of run.
func dosSpec() AttackSpec {
	return AttackSpec{
		Kind:   DoSAttack,
		Window: attack.Window{Start: 182, End: 300},
		Jammer: attack.PaperJammer(),
	}
}

// delaySpec is the Section 6.2 spoofing attack: +6 m after k = 180.
func delaySpec() AttackSpec {
	return AttackSpec{
		Kind:    DelayAttack,
		Window:  attack.Window{Start: 180, End: 300},
		OffsetM: 6,
	}
}

// Fig2aDoS returns the Figure 2a scenario: DoS under constant deceleration.
func Fig2aDoS() Scenario {
	s := paperBase("fig2a-dos-const-decel")
	s.LeaderProfile = constDecel()
	s.Attack = dosSpec()
	return s
}

// Fig2bDelay returns the Figure 2b scenario: delay injection under
// constant deceleration.
func Fig2bDelay() Scenario {
	s := paperBase("fig2b-delay-const-decel")
	s.LeaderProfile = constDecel()
	s.Attack = delaySpec()
	return s
}

// Fig3aDoS returns the Figure 3a scenario: DoS under the
// decelerate-then-accelerate leader.
func Fig3aDoS() Scenario {
	s := paperBase("fig3a-dos-decel-accel")
	s.LeaderProfile = decelAccel()
	s.Attack = dosSpec()
	return s
}

// Fig3bDelay returns the Figure 3b scenario: delay injection under the
// decelerate-then-accelerate leader.
func Fig3bDelay() Scenario {
	s := paperBase("fig3b-delay-decel-accel")
	s.LeaderProfile = decelAccel()
	s.Attack = delaySpec()
	return s
}

// Baseline returns the matching no-attack run for any figure scenario.
func Baseline(s Scenario) Scenario {
	s.Name += "-baseline"
	s.Attack = AttackSpec{Kind: NoAttack}
	return s
}

// Undefended returns the scenario with the CRA + RLS pipeline disabled, so
// corrupted measurements drive the controller directly — the "with attack"
// curves of the figures.
func Undefended(s Scenario) Scenario {
	s.Name += "-undefended"
	s.Defended = false
	return s
}
