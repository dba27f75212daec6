package report

import (
	"safesense/internal/sim"
	"safesense/internal/trace"
)

// RunSummary is the JSON-serializable digest of one sim.Result: the wire
// format the safesensed service returns for a single-scenario run, and a
// stable export shape for external tooling. Traces ride along only when
// requested — they dominate the payload size.
type RunSummary struct {
	Name     string `json:"name"`
	Attack   string `json:"attack"`
	Defended bool   `json:"defended"`
	Steps    int    `json:"steps"`
	Seed     int64  `json:"seed"`

	DetectedAt     int `json:"detected_at"`
	FalsePositives int `json:"false_positives"`
	FalseNegatives int `json:"false_negatives"`
	TruePositives  int `json:"true_positives"`
	TrueNegatives  int `json:"true_negatives"`

	MinGapM       float64 `json:"min_gap_m"`
	FinalGapM     float64 `json:"final_gap_m"`
	FinalSpeedMps float64 `json:"final_speed_mps"`
	CollisionAt   int     `json:"collision_at"`

	EstimateSteps int     `json:"estimate_steps"`
	DistRMSEm     float64 `json:"dist_rmse_m"`
	DistMaxErrM   float64 `json:"dist_max_err_m"`
	VelRMSEmps    float64 `json:"vel_rmse_mps"`
	VelMaxErrMps  float64 `json:"vel_max_err_mps"`
	// RLSTimeNs is the run's rls_estimation phase total (sim.Result's
	// RLSTime). Only a timed run (sim.Timed or sim.Traced) measures it,
	// so it is nil on an untimed sim.Summary run and the answer omits
	// the key rather than claim the predictor took 0 ns. A timed run
	// that never ran the predictor (undefended) reports 0.
	RLSTimeNs *int64 `json:"rls_time_ns,omitempty"`

	// Events is the flight-recorder timeline: challenge instants, CRA
	// detections, RLS takeover/release, exceedances, collisions — each
	// stamped with its timestep k.
	Events []sim.FlightEvent `json:"events,omitempty"`
	// Anomalies carries the recorder's last-N state dumps for collisions
	// and challenge-instant detector confusion.
	Anomalies []sim.AnomalyDump `json:"anomalies,omitempty"`

	// Traces holds the distance / velocity / speed trace sets when the
	// caller asked for them (see Summarize's includeTraces).
	Traces *RunTraces `json:"traces,omitempty"`
}

// RunTraces bundles the three trace sets of a run in JSON form.
type RunTraces struct {
	Distance trace.SetDump `json:"distance"`
	Velocity trace.SetDump `json:"velocity"`
	Speeds   trace.SetDump `json:"speeds"`
}

// Summarize projects a Result onto the wire format.
func Summarize(res *sim.Result, includeTraces bool) RunSummary {
	s := RunSummary{
		Name:           res.Scenario.Name,
		Attack:         res.Scenario.Attack.Kind.String(),
		Defended:       res.Scenario.Defended,
		Steps:          res.Scenario.Steps,
		Seed:           res.Scenario.Seed,
		DetectedAt:     res.DetectedAt,
		FalsePositives: res.Accuracy.FalsePositives,
		FalseNegatives: res.Accuracy.FalseNegatives,
		TruePositives:  res.Accuracy.TruePositives,
		TrueNegatives:  res.Accuracy.TrueNegatives,
		MinGapM:        res.MinGap,
		FinalGapM:      res.FinalGap,
		FinalSpeedMps:  res.FinalFollowerSpeed,
		CollisionAt:    res.CollisionAt,
		EstimateSteps:  res.EstimateSteps,
		DistRMSEm:      res.EstimateDistRMSE,
		DistMaxErrM:    res.EstimateDistMaxErr,
		VelRMSEmps:     res.EstimateVelRMSE,
		VelMaxErrMps:   res.EstimateVelMaxErr,
		Events:         res.Flight,
		Anomalies:      res.Anomalies,
	}
	if res.Phases != nil { // a timed run
		ns := res.RLSTime.Nanoseconds()
		s.RLSTimeNs = &ns
	}
	if includeTraces {
		s.Traces = &RunTraces{
			Distance: res.Distance.Dump(),
			Velocity: res.Velocity.Dump(),
			Speeds:   res.Speeds.Dump(),
		}
	}
	return s
}
