package units

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (tol %v)", what, got, want, tol)
	}
}

func TestMphToMps(t *testing.T) {
	// The paper's initial speeds: 65 mph and 67 mph.
	approx(t, MphToMps(65), 29.0576, 1e-3, "65 mph")
	approx(t, MphToMps(67), 29.9517, 1e-3, "67 mph")
	approx(t, MphToMps(0), 0, 0, "0 mph")
}

func TestMphRoundTrip(t *testing.T) {
	f := func(mph float64) bool {
		if math.IsNaN(mph) || math.IsInf(mph, 0) || math.Abs(mph) > 1e12 {
			return true
		}
		back := MpsToMph(MphToMps(mph))
		return math.Abs(back-mph) <= 1e-9*(1+math.Abs(mph))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDBConversions(t *testing.T) {
	approx(t, DBToLinear(0), 1, 1e-12, "0 dB")
	approx(t, DBToLinear(10), 10, 1e-9, "10 dB")
	approx(t, DBToLinear(3), 1.9952623, 1e-6, "3 dB")
	approx(t, LinearToDB(100), 20, 1e-9, "100x")
	if !math.IsInf(LinearToDB(0), -1) {
		t.Fatal("LinearToDB(0) should be -Inf")
	}
}

func TestDBRoundTrip(t *testing.T) {
	f := func(db float64) bool {
		if math.IsNaN(db) || math.Abs(db) > 300 {
			return true
		}
		back := LinearToDB(DBToLinear(db))
		return math.Abs(back-db) <= 1e-9*(1+math.Abs(db))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDBm(t *testing.T) {
	// The paper's radar transmit power: Pt = 10 mW = 10 dBm.
	approx(t, WattsToDBm(0.010), 10, 1e-9, "10 mW")
	// The paper's jammer: Pj = 100 mW = 20 dBm.
	approx(t, WattsToDBm(0.100), 20, 1e-9, "100 mW")
}

func TestThermalNoisePower(t *testing.T) {
	// kTB at 290 K over 150 MHz (the LRR2 sweep bandwidth).
	want := Boltzmann * 290 * 150e6
	approx(t, ThermalNoisePower(StandardNoiseTemp, 150*MHz), want, want*1e-12, "kTB")
}

func TestRoundTripDelay(t *testing.T) {
	// 150 m target: tau = 2*150/c = 1.0007 microseconds.
	tau := RoundTripDelay(150)
	approx(t, tau, 2*150/SpeedOfLight, 1e-18, "delay")
	approx(t, DelayToDistance(tau), 150, 1e-9, "inverse")
}

func TestDelayDistanceRoundTrip(t *testing.T) {
	f := func(d float64) bool {
		if math.IsNaN(d) || math.IsInf(d, 0) || math.Abs(d) > 1e9 {
			return true
		}
		back := DelayToDistance(RoundTripDelay(d))
		return math.Abs(back-d) <= 1e-9*(1+math.Abs(d))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
