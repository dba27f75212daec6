// Package vehicle models the longitudinal dynamics of the car-following
// case study (Section 6.1): point-mass kinematics integrated per Eqns
// 15–17, and the leader's acceleration profiles used in Figures 2 and 3.
package vehicle

import (
	"errors"
	"fmt"
)

// State is a vehicle's longitudinal state.
type State struct {
	// Position is the along-road coordinate x in meters.
	Position float64
	// Velocity in m/s; never negative (vehicles do not reverse in this
	// model — braking saturates at standstill).
	Velocity float64
	// Accel is the acceleration applied over the last step, m/s^2.
	Accel float64
}

// Step integrates one sample of duration dt under acceleration a
// (paper Eqns 15 and 17):
//
//	v_{k+1} = v_k + a dt
//	x_{k+1} = x_k + v_k dt + a dt^2 / 2
//
// Velocity is clamped at zero: a braking command cannot make the vehicle
// reverse, and the position update uses the truncated kinematics in that
// case (stop partway through the step).
func (s State) Step(a, dt float64) State {
	v := s.Velocity + a*dt
	if v < 0 {
		// Time to standstill within this step.
		tStop := 0.0
		if a != 0 {
			tStop = -s.Velocity / a
		}
		return State{
			Position: s.Position + s.Velocity*tStop + a*tStop*tStop/2,
			Velocity: 0,
			Accel:    a,
		}
	}
	return State{
		Position: s.Position + s.Velocity*dt + a*dt*dt/2,
		Velocity: v,
		Accel:    a,
	}
}

// Gap returns the bumper distance from follower f to leader l (positive
// when the leader is ahead).
func Gap(l, f State) float64 { return l.Position - f.Position }

// RelVelocity returns the paper's Delta v = v_leader - v_follower
// (negative while the follower closes in).
func RelVelocity(l, f State) float64 { return l.Velocity - f.Velocity }

// Profile supplies the leader vehicle's acceleration at each step.
type Profile interface {
	// Accel returns the commanded acceleration at step k (m/s^2).
	Accel(k int) float64
	// Name identifies the profile in traces.
	Name() string
}

// ConstantAccel applies a fixed acceleration forever — the Figure 2
// leader decelerates at -0.1082 m/s^2.
type ConstantAccel struct{ A float64 }

// Accel implements Profile.
func (c ConstantAccel) Accel(int) float64 { return c.A }

// Name implements Profile.
func (c ConstantAccel) Name() string { return fmt.Sprintf("const(%.4g)", c.A) }

// Phase is one segment of a PhasedProfile.
type Phase struct {
	// Until is the last step (inclusive) this phase applies to.
	Until int
	// A is the acceleration during the phase.
	A float64
}

// PhasedProfile switches accelerations at fixed steps — the Figure 3
// leader decelerates at -0.1082 m/s^2 and then accelerates at
// +0.012 m/s^2. Steps beyond the last phase use the final phase's value.
type PhasedProfile struct {
	Phases []Phase
	Label  string
}

// NewPhasedProfile validates phase ordering.
func NewPhasedProfile(label string, phases ...Phase) (*PhasedProfile, error) {
	if len(phases) == 0 {
		return nil, errors.New("vehicle: empty profile")
	}
	for i := 1; i < len(phases); i++ {
		if phases[i].Until <= phases[i-1].Until {
			return nil, fmt.Errorf("vehicle: phase %d not after phase %d", i, i-1)
		}
	}
	return &PhasedProfile{Phases: phases, Label: label}, nil
}

// Accel implements Profile.
func (p *PhasedProfile) Accel(k int) float64 {
	for _, ph := range p.Phases {
		if k <= ph.Until {
			return ph.A
		}
	}
	return p.Phases[len(p.Phases)-1].A
}

// Name implements Profile.
func (p *PhasedProfile) Name() string { return p.Label }
