package lateral

import (
	"errors"
	"fmt"

	"safesense/internal/estimate"
	"safesense/internal/noise"
	"safesense/internal/prbs"
	"safesense/internal/trace"
)

// Measurement is one lateral-sensor sample: an active (lidar-type) lane
// sensor measuring the offset from the lane centerline and the heading
// error. The same CRA contract as the radar applies: at challenge instants
// the sensor emits nothing, so receiver energy implies an attacker.
type Measurement struct {
	Ey, EPsi  float64
	Power     float64
	Challenge bool
}

// SensorParams models the active lane sensor.
type SensorParams struct {
	// EyStd / EPsiStd are the measurement noise standard deviations.
	EyStd, EPsiStd float64
	// ReturnPowerW is the nominal optical return power, NoiseFloorW the
	// quiet-channel level; the detector threshold sits between them.
	ReturnPowerW, NoiseFloorW float64
}

// DefaultSensor returns a lidar-like lane sensor: centimeter-level offset
// accuracy at 50 Hz.
func DefaultSensor() SensorParams {
	return SensorParams{EyStd: 0.02, EPsiStd: 0.005, ReturnPowerW: 1e-6, NoiseFloorW: 1e-9}
}

// ZeroThreshold is the detector's quiet-channel level.
func (s SensorParams) ZeroThreshold() float64 { return 10 * s.NoiseFloorW }

// Scenario configures a lane-keeping run under lateral-sensor attack.
type Scenario struct {
	Name string
	// Steps at period DT.
	Steps int
	// DT is the control period (s).
	DT float64
	// Speed is the constant longitudinal speed vx (m/s).
	Speed float64
	// Vehicle and Sensor parameters.
	Vehicle BicycleParams
	Sensor  SensorParams
	// InitialEy perturbs the starting lateral offset (m).
	InitialEy float64
	// Schedule supplies challenge instants.
	Schedule prbs.Schedule
	// SpoofOffsetM biases the measured offset within the attack window
	// (0 disables the attack).
	SpoofOffsetM float64
	// AttackStart / AttackEnd bound the attack in steps.
	AttackStart, AttackEnd int
	// Defended enables CRA + RLS.
	Defended bool
	// LaneHalfWidthM is the departure threshold (zero means 1.75 m).
	LaneHalfWidthM float64
	Seed           int64
}

// DefaultScenario returns a 30 s highway lane-keeping run with a +0.8 m
// spoof starting at step 800 and a pseudo-random challenge schedule.
func DefaultScenario() Scenario {
	sched, err := prbs.NewLFSRSchedule(12, 77, 4, 1500)
	if err != nil {
		panic(err) // static construction cannot fail
	}
	return Scenario{
		Name:           "lane-keeping-spoof",
		Steps:          1500,
		DT:             0.02,
		Speed:          30,
		Vehicle:        DefaultSedan(),
		Sensor:         DefaultSensor(),
		InitialEy:      0.3,
		Schedule:       sched,
		SpoofOffsetM:   0.8,
		AttackStart:    800,
		AttackEnd:      1499,
		Defended:       true,
		LaneHalfWidthM: 1.75,
		Seed:           1,
	}
}

// Validate checks scenario consistency.
func (s Scenario) Validate() error {
	if s.Steps < 1 || s.DT <= 0 || s.Speed <= 0 {
		return errors.New("lateral: steps, dt, and speed must be positive")
	}
	if s.Schedule == nil {
		return errors.New("lateral: nil challenge schedule")
	}
	if s.SpoofOffsetM != 0 && s.AttackEnd < s.AttackStart {
		return errors.New("lateral: attack window inverted")
	}
	if err := s.Vehicle.Validate(); err != nil {
		return err
	}
	return nil
}

// Result carries the lane-keeping run outcome.
type Result struct {
	Scenario   Scenario
	Offset     *trace.Set
	DetectedAt int
	// MaxAbsEy is the largest true lateral offset (m).
	MaxAbsEy float64
	// DepartedAt is the first step |e_y| exceeded the lane half width,
	// -1 if the vehicle stayed in lane.
	DepartedAt int
}

// Run executes the lane-keeping scenario: plant -> active lane sensor
// (with CRA challenges) -> spoof attack -> CRA comparison -> RLS
// estimation -> LKC steering. The heading-rate and offset-rate states come
// from the (trusted) inertial sensors, mirroring the longitudinal study's
// trusted own-speed assumption.
func Run(s Scenario) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	model, err := NewModel(s.Vehicle, s.Speed, s.DT)
	if err != nil {
		return nil, err
	}
	ctl, err := NewLKC(model)
	if err != nil {
		return nil, err
	}
	src := noise.NewSource(s.Seed)
	predCfg := estimate.DefaultPredictorConfig()
	eyPred, err := estimate.NewPredictor(predCfg)
	if err != nil {
		return nil, err
	}
	epsiPred, err := estimate.NewPredictor(predCfg)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Scenario:   s,
		Offset:     trace.NewSet(s.Name+": lateral offset", "step", "e_y (m)"),
		DetectedAt: -1,
		DepartedAt: -1,
	}
	tTrue := res.Offset.Add("truth")
	tMeas := res.Offset.Add("measured")
	tEst := res.Offset.Add("estimated")

	x := [stateDim]float64{s.InitialEy, 0, 0, 0}
	underAttack := false
	heldEy, heldEPsi := s.InitialEy, 0.0
	laneHalf := s.LaneHalfWidthM
	if laneHalf == 0 {
		laneHalf = 1.75
	}
	// Recovery bookkeeping. CRA verifies the channel only at challenge
	// instants, so the defense anchors the vehicle's absolute lane
	// position at each verified-clean challenge — the RLS trend's
	// one-step prediction there, which smooths the sensor noise — and
	// dead-reckons from the anchor with the trusted inertial rates
	// (e_y' and e_psi' are exactly the offsets' derivatives in the error
	// model). During an attack the estimate is anchor + integrated rates:
	// responsive to the vehicle's own steering, unbiased by any spoofed
	// samples absorbed between onset and detection, and it re-centers the
	// vehicle because the rate integral has tracked the real displacement
	// through the detection-latency window.
	anchorEy, anchorEPsi := s.InitialEy, 0.0
	rateIntEy, rateIntEPsi := 0.0, 0.0

	for k := 0; k < s.Steps; k++ {
		tTrue.Append(k, x[StateEy])
		if a := abs(x[StateEy]); a > res.MaxAbsEy {
			res.MaxAbsEy = a
		}
		if abs(x[StateEy]) > laneHalf && res.DepartedAt < 0 {
			res.DepartedAt = k
		}

		m := observe(s, k, x, src)
		attacked := s.SpoofOffsetM != 0 && k >= s.AttackStart && k <= s.AttackEnd
		if attacked {
			if m.Challenge {
				// The spoofer's hardware delay leaks into the quiet
				// window, exactly as with the radar.
				m.Power += s.Sensor.ReturnPowerW / 4
			} else {
				m.Ey += s.SpoofOffsetM
			}
		}
		tMeas.Append(k, m.Ey)

		useEy, useEPsi := m.Ey, m.EPsi
		if s.Defended && m.Challenge {
			switch {
			case m.Power > s.Sensor.ZeroThreshold() && !underAttack:
				underAttack = true
				if res.DetectedAt < 0 {
					res.DetectedAt = k
				}
			case m.Power <= s.Sensor.ZeroThreshold():
				underAttack = false
				// Verified-clean challenge: re-anchor from the RLS
				// trends and restart the dead-reckoning integrals.
				anchorEy = peek(eyPred)
				anchorEPsi = peek(epsiPred)
				rateIntEy, rateIntEPsi = 0, 0
			}
		}
		switch {
		case s.Defended && underAttack:
			useEy = anchorEy + rateIntEy
			useEPsi = anchorEPsi + rateIntEPsi
			eyPred.SkipStep() // trends pause; the integrals carry on
			epsiPred.SkipStep()
			tEst.Append(k, useEy)
		case m.Challenge:
			useEy, useEPsi = heldEy, heldEPsi
			if s.Defended {
				eyPred.SkipStep()
				epsiPred.SkipStep()
			}
		default:
			if s.Defended {
				if _, err := eyPred.Observe(m.Ey); err != nil {
					return nil, fmt.Errorf("lateral: %w", err)
				}
				if _, err := epsiPred.Observe(m.EPsi); err != nil {
					return nil, fmt.Errorf("lateral: %w", err)
				}
			}
		}
		heldEy, heldEPsi = useEy, useEPsi

		// Rates come from trusted inertial sensing: use the true state.
		delta := ctl.Steer([stateDim]float64{useEy, x[StateEyDot], useEPsi, x[StateEPsiDot]})
		rateIntEy += x[StateEyDot] * s.DT
		rateIntEPsi += x[StateEPsiDot] * s.DT
		x = model.Step(x, delta)
	}
	return res, nil
}

func observe(s Scenario, k int, x [stateDim]float64, src *noise.Source) Measurement {
	if s.Schedule.Challenge(k) {
		return Measurement{Challenge: true, Power: s.Sensor.NoiseFloorW}
	}
	return Measurement{
		Ey:    x[StateEy] + src.Gaussian(0, s.Sensor.EyStd),
		EPsi:  x[StateEPsi] + src.Gaussian(0, s.Sensor.EPsiStd),
		Power: s.Sensor.ReturnPowerW,
	}
}

// peek returns the predictor's one-step prediction without advancing its
// state (trend-smoothed current value).
func peek(p *estimate.Predictor) float64 {
	return p.Clone().Predict()
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
