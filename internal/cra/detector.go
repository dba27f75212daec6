// Package cra implements the challenge-response authentication detector of
// the paper's Algorithm 2 (lines 7–9): at each challenge instant k in T_c
// the radar transmitted nothing, so a receiver output above the quiet-
// channel threshold reveals an attacker — a jammer flooding the band or a
// spoofer whose replay hardware is still radiating. Between challenge
// instants the detector holds its state; an attack is considered over when
// a challenge instant reads quiet again.
package cra

import (
	"errors"

	"safesense/internal/prbs"
	"safesense/internal/radar"
)

// State is the detector's attack belief.
type State int

const (
	// Clear means no attack is currently believed active.
	Clear State = iota
	// UnderAttack means a challenge instant observed unexpected energy
	// and no later challenge has read quiet yet.
	UnderAttack
)

// String renders the state.
func (s State) String() string {
	if s == UnderAttack {
		return "under-attack"
	}
	return "clear"
}

// Event describes the detector's decision at one step.
type Event struct {
	K int
	// Challenged reports whether this step was a challenge instant (only
	// those steps can change the detector state).
	Challenged bool
	// State is the post-step belief.
	State State
	// Detected is true exactly at the step an attack is first flagged.
	Detected bool
	// ClearedNow is true exactly at the step an attack is declared over.
	ClearedNow bool
}

// Detector runs Algorithm 2's detection loop.
type Detector struct {
	schedule  prbs.Schedule
	threshold float64
	state     State

	detections []int
	clearings  []int
}

// NewDetector builds a detector for the given challenge schedule and quiet-
// channel power threshold (watts). Use the radar front end's ZeroThreshold.
func NewDetector(schedule prbs.Schedule, threshold float64) (*Detector, error) {
	if schedule == nil {
		return nil, errors.New("cra: nil challenge schedule")
	}
	if threshold <= 0 {
		return nil, errors.New("cra: threshold must be positive")
	}
	return &Detector{schedule: schedule, threshold: threshold}, nil
}

// State returns the current belief.
func (d *Detector) State() State { return d.state }

// Detections returns the steps at which attacks were flagged.
func (d *Detector) Detections() []int {
	out := make([]int, len(d.detections))
	copy(out, d.detections)
	return out
}

// Clearings returns the steps at which attacks were declared over.
func (d *Detector) Clearings() []int {
	out := make([]int, len(d.clearings))
	copy(out, d.clearings)
	return out
}

// Step processes the step-k measurement. Only challenge instants can flip
// the state; all other steps report the held belief.
func (d *Detector) Step(m radar.Measurement) Event {
	ev := Event{K: m.K, Challenged: d.schedule.Challenge(m.K)}
	if !ev.Challenged {
		ev.State = d.state
		return ev
	}
	quiet := m.IsZero(d.threshold)
	switch {
	case d.state == Clear && !quiet:
		d.state = UnderAttack
		d.detections = append(d.detections, m.K)
		ev.Detected = true
	case d.state == UnderAttack && quiet:
		d.state = Clear
		d.clearings = append(d.clearings, m.K)
		ev.ClearedNow = true
	}
	ev.State = d.state
	return ev
}

// Accuracy holds the confusion counts of the detector's per-step belief
// against ground truth (see Score). Because CRA only samples at challenge
// instants, a detection necessarily lags attack onset by up to the
// challenge spacing; that lag is reported as detection latency rather
// than counted as false negatives. Steps are scored at challenge
// instants only, where the paper claims zero false positives and zero
// false negatives.
type Accuracy struct {
	TruePositives, TrueNegatives int
	FalsePositives               int
	FalseNegatives               int
}

// Score adds one detector event to the confusion counts; attacked
// reports whether an attack was physically active at step ev.K. Only
// challenge instants are scored, so a run can score each step's event as
// it happens instead of keeping the event log.
func (a *Accuracy) Score(ev Event, attacked bool) {
	if !ev.Challenged {
		return
	}
	flagged := ev.State == UnderAttack
	switch {
	case attacked && flagged:
		a.TruePositives++
	case attacked && !flagged:
		a.FalseNegatives++
	case !attacked && flagged:
		a.FalsePositives++
	default:
		a.TrueNegatives++
	}
}
