// Package acc implements the adaptive cruise control system of the paper's
// Section 6.1: a hierarchical architecture whose upper-level controller
// turns radar measurements into a desired acceleration via the constant
// time headway (CTH) policy (Eqns 12, 13, 16) and whose lower-level
// controller tracks that acceleration through the first-order vehicle
// response of Eqn 14.
package acc

import (
	"errors"
	"math"
)

// Config holds the controller parameters. The paper's values: headway time
// tau_h = 3 s, minimum stopping distance d0 = 5 m, system gain K1 = 1.0,
// time constant Ti = 1.008 s, sample period T = 1 s.
type Config struct {
	// SetSpeed is the driver-selected cruise speed v_set (m/s).
	SetSpeed float64
	// HeadwayTime is tau_h (s).
	HeadwayTime float64
	// StopDistance is d0 (m).
	StopDistance float64
	// Gain is K1.
	Gain float64
	// TimeConstant is Ti (s) of the lower-level loop.
	TimeConstant float64
	// SamplePeriod is T (s).
	SamplePeriod float64
	// AccelMax / BrakeMax bound the commanded acceleration (m/s^2;
	// BrakeMax is positive and applied as a lower bound of -BrakeMax).
	AccelMax, BrakeMax float64
}

// DefaultConfig returns the paper's parameter set with actuator limits
// typical of a passenger car, for a given set speed.
func DefaultConfig(setSpeed float64) Config {
	return Config{
		SetSpeed:     setSpeed,
		HeadwayTime:  3,
		StopDistance: 5,
		Gain:         1.0,
		TimeConstant: 1.008,
		SamplePeriod: 1,
		AccelMax:     2.5,
		BrakeMax:     6.0,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.SetSpeed <= 0:
		return errors.New("acc: set speed must be positive")
	case c.HeadwayTime <= 0:
		return errors.New("acc: headway time must be positive")
	case c.StopDistance < 0:
		return errors.New("acc: stop distance must be non-negative")
	case c.Gain <= 0:
		return errors.New("acc: gain must be positive")
	case c.TimeConstant <= 0:
		return errors.New("acc: time constant must be positive")
	case c.SamplePeriod <= 0:
		return errors.New("acc: sample period must be positive")
	case c.AccelMax <= 0 || c.BrakeMax <= 0:
		return errors.New("acc: actuator limits must be positive")
	}
	return nil
}

// DesiredDistance returns d_des per Eqn 12: d0 + tau_h * vF.
func (c Config) DesiredDistance(vF float64) float64 {
	return c.StopDistance + c.HeadwayTime*vF
}

// Mode is the ACC operating mode.
type Mode int

const (
	// SpeedControl drives at the set speed (no close preceding vehicle).
	SpeedControl Mode = iota
	// SpacingControl maintains the desired distance to the leader.
	SpacingControl
)

// String renders the mode.
func (m Mode) String() string {
	if m == SpacingControl {
		return "spacing"
	}
	return "speed"
}

// Command is the upper-level controller output for one step.
type Command struct {
	Mode Mode
	// VDes is the desired speed from the CTH law (m/s).
	VDes float64
	// ADes is the desired acceleration handed to the lower level (m/s^2),
	// already saturated to the actuator limits.
	ADes float64
	// ClearanceError is Delta d = d - d_des (m); meaningful in spacing
	// mode.
	ClearanceError float64
}

// UpperController implements the CTH output-feedback law of Eqn 13 with the
// desired-acceleration derivation of Eqn 16 and speed/spacing mode
// switching.
type UpperController struct {
	cfg Config
}

// NewUpperController validates the configuration.
func NewUpperController(cfg Config) (*UpperController, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &UpperController{cfg: cfg}, nil
}

// Step computes the step command from the radar measurement (d, dv) and the
// trusted own-speed measurement vF. Pass hasTarget = false when the radar
// reports no vehicle ahead (pure speed control).
//
// Mode arbitration takes the more conservative (smaller) of the speed-mode
// and spacing-mode desired speeds whenever a target is present. Switching
// on the raw d <= d_des comparison instead would chatter at the boundary:
// one step of spacing braking lowers vF and with it d_des, flipping the
// comparator back to speed mode, which commands full acceleration toward
// v_set — a bang-bang limit cycle. Min-arbitration is the standard ACC
// resolution and leaves both pure modes intact away from the boundary.
func (u *UpperController) Step(d, dv, vF float64, hasTarget bool) Command {
	cfg := u.cfg
	dDes := cfg.DesiredDistance(vF)
	cmd := Command{Mode: SpeedControl, VDes: cfg.SetSpeed}
	if hasTarget {
		// Spacing law, Eqn 13: with gain c = T/(tau_h K1),
		//
		//	v_des(k+1) = (1 - c) vF + c (vF + Δv + Δd)
		//	           = vF + c (Δv + Δd)
		//
		// the constant-time-headway law: desired speed adjusts the own
		// speed proportionally to the clearance error and closing rate,
		// with equilibrium exactly at Δd = Δv = 0 (gap = d_des, matched
		// speeds).
		cGain := cfg.SamplePeriod / (cfg.HeadwayTime * cfg.Gain)
		clearance := d - dDes
		vSpacing := vF + cGain*(dv+clearance)
		if vSpacing < cmd.VDes {
			cmd.Mode = SpacingControl
			cmd.ClearanceError = clearance
			cmd.VDes = vSpacing
		}
	}
	if cmd.VDes < 0 {
		cmd.VDes = 0
	}
	// Eqn 16 derives a_des from the change the desired speed asks of the
	// vehicle over one sample. Differencing successive v_des values
	// literally would command zero acceleration whenever v_des is
	// constant — a speed-mode vehicle below v_set would never speed up —
	// so the realized speed vF anchors the difference:
	//
	//	a_des(k+1) = (v_des(k+1) - vF(k)) / T
	//
	// which in spacing mode reduces to the classical CTH acceleration law
	// a_des = (Δv + Δd) / (tau_h K1).
	cmd.ADes = clamp((cmd.VDes-vF)/cfg.SamplePeriod, -cfg.BrakeMax, cfg.AccelMax)
	return cmd
}

func clamp(v, lo, hi float64) float64 {
	return math.Min(math.Max(v, lo), hi)
}

// LowerController tracks the desired acceleration through the first-order
// closed-loop response of Eqn 14, discretized exactly (zero-order hold):
//
//	a_F(s) / a_des(s) = K1 / (Ti s + 1)
//	a_F[k+1] = phi a_F[k] + (1 - phi) K1 a_des[k],  phi = exp(-T/Ti)
type LowerController struct {
	phi  float64 // exp(-T/Ti)
	gain float64 // (1 - phi) K1
	aF   float64
}

// NewLowerController builds the lower-level loop from the configuration.
func NewLowerController(cfg Config) (*LowerController, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	phi := math.Exp(-cfg.SamplePeriod / cfg.TimeConstant)
	return &LowerController{phi: phi, gain: (1 - phi) * cfg.Gain}, nil
}

// Step advances the actuator state one sample toward aDes and returns the
// realized vehicle acceleration a_F.
func (l *LowerController) Step(aDes float64) float64 {
	// The conversions round each product before the sum (no fused
	// multiply-add), as the state-space form did.
	l.aF = float64(l.phi*l.aF) + float64(l.gain*aDes)
	return l.aF
}

// Accel returns the current realized acceleration.
func (l *LowerController) Accel() float64 { return l.aF }

// Controller bundles the hierarchical pair.
type Controller struct {
	Upper *UpperController
	Lower *LowerController
}

// NewController builds the full hierarchical ACC controller.
func NewController(cfg Config) (*Controller, error) {
	u, err := NewUpperController(cfg)
	if err != nil {
		return nil, err
	}
	l, err := NewLowerController(cfg)
	if err != nil {
		return nil, err
	}
	return &Controller{Upper: u, Lower: l}, nil
}

// Step runs one full control cycle and returns the command and realized
// acceleration.
//
//safesense:hotpath
func (c *Controller) Step(d, dv, vF float64, hasTarget bool) (Command, float64) {
	cmd := c.Upper.Step(d, dv, vF, hasTarget)
	return cmd, c.Lower.Step(cmd.ADes)
}
