// Package attack implements the paper's two remote attacks on the active
// sensor: Denial of Service by a self-screening jammer (Section 4.1,
// Eqns 10–11) and delay-injection spoofing that replays a counterfeit
// reflection with extra physical delay. Attacks transform the radar
// front end's clean measurement stream exactly where the physical channel
// would be corrupted, upstream of the CRA detector.
package attack

import (
	"errors"
	"math"

	"safesense/internal/radar"
	"safesense/internal/units"
)

// Jammer models the self-screening jammer of Eqn 10. The paper's instance:
// Pj = 100 mW, Gj = 10 dBi, Bj = 155 MHz, Lj = 0.10 dB.
type Jammer struct {
	// PeakPowerW is Pj.
	PeakPowerW float64
	// AntennaGainDBi is Gj.
	AntennaGainDBi float64
	// BandwidthHz is Bj, the jammer's operating bandwidth.
	BandwidthHz float64
	// LossDB is Lj.
	LossDB float64
}

// PaperJammer returns the jammer parameter set of Section 6.2.
func PaperJammer() Jammer {
	return Jammer{
		PeakPowerW:     100e-3,
		AntennaGainDBi: 10,
		BandwidthHz:    155 * units.MHz,
		LossDB:         0.10,
	}
}

// Validate checks the jammer parameters.
func (j Jammer) Validate() error {
	if j.PeakPowerW <= 0 || j.BandwidthHz <= 0 {
		return errors.New("attack: jammer power and bandwidth must be positive")
	}
	return nil
}

// ReceivedPower returns P_jammer per Eqn 10: the jamming power collected by
// a victim radar with parameters p at distance d:
//
//	P_jammer = Pj Gj lambda^2 G B / ((4 pi)^2 d^2 Bj Lj)
func (j Jammer) ReceivedPower(p radar.Params, d float64) float64 {
	return j.budget(p).receivedPower(d)
}

// jamBudget holds the distance-independent terms of Eqn 10 for one
// jammer and victim radar, so an attack computes them once.
type jamBudget struct {
	num      float64 // Pj Gj lambda^2 G B
	fourPiSq float64 // (4 pi)^2
	bj       float64 // Bj
	lj       float64 // Lj
}

func (j Jammer) budget(p radar.Params) jamBudget {
	gj := units.DBToLinear(j.AntennaGainDBi)
	g := units.DBToLinear(p.AntennaGainDBi)
	return jamBudget{
		num:      j.PeakPowerW * gj * p.WavelengthM * p.WavelengthM * g * p.OperatingBandwidthHz,
		fourPiSq: math.Pow(4*math.Pi, 2),
		bj:       j.BandwidthHz,
		lj:       units.DBToLinear(j.LossDB),
	}
}

// receivedPower evaluates Eqn 10 at distance d, in ReceivedPower's
// original left-to-right order so every value is bit-identical.
func (b jamBudget) receivedPower(d float64) float64 {
	if d <= 0 {
		return math.Inf(1)
	}
	return b.num / (b.fourPiSq * d * d * b.bj * b.lj)
}

// PowerRatio returns Ps / P_jammer per Eqn 11:
//
//	Ps / P_jammer = Pt sigma B Lj / (4 pi Pj Gj d^2 B Lj ...)
//
// evaluated as the ratio of the radar's target return (Eqn 9) to the
// jamming power (Eqn 10). The attack succeeds when the ratio is below 1.
func (j Jammer) PowerRatio(p radar.Params, d float64) float64 {
	ps := p.ReceivedPower(d, p.TargetRCS)
	pj := j.ReceivedPower(p, d)
	return ps / pj
}

// Succeeds reports whether the jammer overwhelms the target return at
// distance d (power ratio < 1, the paper's success condition).
func (j Jammer) Succeeds(p radar.Params, d float64) bool {
	return j.PowerRatio(p, d) < 1
}

// BurnThroughRange returns the distance below which the target return
// overcomes the jammer (power ratio >= 1), found by bisection over the
// radar's operating range. It returns 0 if the jammer wins everywhere in
// range, and MaxRangeM if the radar wins everywhere.
//
// Because the target return falls as 1/d^4 while self-screening jamming
// falls as 1/d^2, the ratio decreases with distance and the crossover is
// unique.
func (j Jammer) BurnThroughRange(p radar.Params) float64 {
	lo, hi := p.MinRangeM, p.MaxRangeM
	if j.PowerRatio(p, lo) < 1 {
		return 0
	}
	if j.PowerRatio(p, hi) >= 1 {
		return p.MaxRangeM
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if j.PowerRatio(p, mid) >= 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
