// Package units provides the physical constants and unit conversions used
// throughout the safesense radar, jammer, and vehicle models.
//
// All internal computation is done in SI units (meters, seconds, watts,
// hertz). This package is the single place where the paper's mixed units
// (miles/hour, dB, dBi, dBm, GHz, mm) are converted.
package units

import "math"

// Physical constants (SI).
const (
	// SpeedOfLight is the speed of light in vacuum, m/s.
	SpeedOfLight = 299792458.0

	// Boltzmann is the Boltzmann constant, J/K. Used for the thermal
	// noise floor kTB of the radar receiver.
	Boltzmann = 1.380649e-23

	// StandardNoiseTemp is the reference receiver noise temperature, K.
	StandardNoiseTemp = 290.0
)

// Frequency multipliers.
const (
	MHz = 1e6
	GHz = 1e9
)

// Millimeter is the length multiplier for millimeters.
const Millimeter = 1e-3

// metersPerMile is the international mile in meters.
const metersPerMile = 1609.344

// MphToMps converts miles per hour to meters per second.
func MphToMps(mph float64) float64 { return mph * metersPerMile / 3600.0 }

// MpsToMph converts meters per second to miles per hour.
func MpsToMph(mps float64) float64 { return mps * 3600.0 / metersPerMile }

// DBToLinear converts a power ratio expressed in decibels to a linear ratio.
// Antenna gains quoted in dBi convert with the same formula.
func DBToLinear(db float64) float64 { return math.Pow(10, db/10) }

// LinearToDB converts a linear power ratio to decibels. It returns -Inf for
// a zero ratio and NaN for negative ratios, matching 10*log10.
func LinearToDB(ratio float64) float64 { return 10 * math.Log10(ratio) }

// WattsToDBm converts a power level in watts to dBm.
func WattsToDBm(w float64) float64 { return LinearToDB(w / 1e-3) }

// ThermalNoisePower returns the thermal noise floor kTB in watts for a
// receiver of bandwidth bw (Hz) at temperature temp (K).
func ThermalNoisePower(temp, bw float64) float64 { return Boltzmann * temp * bw }

// RoundTripDelay returns the two-way propagation delay tau = 2d/c for a
// target at distance d meters.
func RoundTripDelay(d float64) float64 { return 2 * d / SpeedOfLight }

// DelayToDistance inverts RoundTripDelay: the one-way target distance that
// produces a two-way delay tau.
func DelayToDistance(tau float64) float64 { return tau * SpeedOfLight / 2 }
