package cra

import (
	"testing"

	"safesense/internal/prbs"
	"safesense/internal/radar"
)

const threshold = 1e-13

func meas(k int, power float64, challenge bool) radar.Measurement {
	return radar.Measurement{K: k, Power: power, Challenge: challenge}
}

func TestNewDetectorValidation(t *testing.T) {
	if _, err := NewDetector(nil, threshold); err == nil {
		t.Fatal("nil schedule should fail")
	}
	if _, err := NewDetector(prbs.NewFixedSchedule(1), 0); err == nil {
		t.Fatal("zero threshold should fail")
	}
}

func TestDetectorFlagsJammedChallenge(t *testing.T) {
	sched := prbs.NewFixedSchedule(15, 50, 182)
	d, _ := NewDetector(sched, threshold)
	// Clean challenge at 15: quiet, stays clear.
	ev := d.Step(meas(15, 1e-14, true))
	if ev.State != Clear || ev.Detected {
		t.Fatalf("clean challenge mis-detected: %+v", ev)
	}
	// Normal step with target return power: no state change.
	ev = d.Step(meas(20, 1e-11, false))
	if ev.Challenged || ev.State != Clear {
		t.Fatalf("non-challenge step flipped state: %+v", ev)
	}
	// Attacked challenge at 182: energy present -> detect.
	ev = d.Step(meas(182, 1e-9, true))
	if !ev.Detected || ev.State != UnderAttack {
		t.Fatalf("attack not detected: %+v", ev)
	}
	if got := d.Detections(); len(got) != 1 || got[0] != 182 {
		t.Fatalf("Detections = %v", got)
	}
}

func TestDetectorHoldsStateBetweenChallenges(t *testing.T) {
	sched := prbs.NewFixedSchedule(10, 30)
	d, _ := NewDetector(sched, threshold)
	d.Step(meas(10, 1e-9, true)) // detect
	for k := 11; k < 30; k++ {
		ev := d.Step(meas(k, 1e-11, false))
		if ev.State != UnderAttack {
			t.Fatalf("state dropped at %d", k)
		}
	}
	// Quiet challenge at 30: attack over.
	ev := d.Step(meas(30, 1e-14, true))
	if !ev.ClearedNow || ev.State != Clear {
		t.Fatalf("clear not recognized: %+v", ev)
	}
	if got := d.Clearings(); len(got) != 1 || got[0] != 30 {
		t.Fatalf("Clearings = %v", got)
	}
}

func TestDetectorZeroFalsePositivesCleanRun(t *testing.T) {
	// The paper's claim: no false positives without an attack.
	sched := prbs.PaperFigureSchedule()
	d, _ := NewDetector(sched, threshold)
	var acc Accuracy
	for k := 0; k <= 300; k++ {
		power := 1e-11 // healthy target return
		if sched.Challenge(k) {
			power = 2e-14 // quiet channel
		}
		acc.Score(d.Step(meas(k, power, sched.Challenge(k))), false)
	}
	if acc.FalsePositives != 0 {
		t.Fatalf("false positives: %+v", acc)
	}
	if acc.TrueNegatives == 0 {
		t.Fatal("no challenge instants evaluated")
	}
}

func TestDetectorZeroFalseNegativesUnderAttack(t *testing.T) {
	// Attack active over [182, 300]; challenges inside it always see
	// energy. Every challenge inside the window must be scored TP.
	sched := prbs.PaperFigureSchedule()
	d, _ := NewDetector(sched, threshold)
	attacked := func(k int) bool { return k >= 182 && k <= 300 }
	var acc Accuracy
	for k := 0; k <= 300; k++ {
		challenge := sched.Challenge(k)
		power := 1e-11
		if challenge && !attacked(k) {
			power = 2e-14
		}
		if attacked(k) {
			power = 1e-9
		}
		acc.Score(d.Step(meas(k, power, challenge)), attacked(k))
	}
	if acc.FalseNegatives != 0 || acc.FalsePositives != 0 {
		t.Fatalf("accuracy: %+v", acc)
	}
	if acc.TruePositives == 0 {
		t.Fatal("no attacked challenges evaluated")
	}
	// Detection time = 182 (the schedule pins a challenge there).
	if got := d.Detections(); len(got) != 1 || got[0] != 182 {
		t.Fatalf("Detections = %v, want [182]", got)
	}
}

func TestDetectorReDetectsSecondAttack(t *testing.T) {
	sched := prbs.NewFixedSchedule(10, 20, 30, 40)
	d, _ := NewDetector(sched, threshold)
	d.Step(meas(10, 1e-9, true))  // attack 1
	d.Step(meas(20, 1e-14, true)) // over
	d.Step(meas(30, 1e-9, true))  // attack 2
	d.Step(meas(40, 1e-14, true)) // over
	if got := d.Detections(); len(got) != 2 || got[0] != 10 || got[1] != 30 {
		t.Fatalf("Detections = %v", got)
	}
	if got := d.Clearings(); len(got) != 2 {
		t.Fatalf("Clearings = %v", got)
	}
}

func TestStateString(t *testing.T) {
	if Clear.String() != "clear" || UnderAttack.String() != "under-attack" {
		t.Fatal("State strings wrong")
	}
}
