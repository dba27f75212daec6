// Package forensic is the anomaly artifact store of the observability
// layer: every run whose flight recorder flagged an anomaly (collision,
// CRA false positive/negative) — or that blew a latency percentile —
// is projected onto a Capture, content-addressed by the SHA-256 of its
// canonical bytes, and kept in a budget-bounded store (JSONL segments
// on disk plus an in-memory index) that the service exposes at
// /v1/anomalies.
//
// Content addressing does the fleet-wide dedup: a job's capture is a
// pure function of (spec hash, job index, seed), so the same anomaly
// shipped by two workers — or re-shipped after a lease was re-granted —
// hashes identically and is stored once. The hash covers only the
// deterministic portion of the capture (spec hash, job identity, grid
// point, flight timeline, anomaly dumps); wall-clock phase timings and
// the capture-reason kinds ride along as metadata but never perturb the
// address.
//
// Because the scenario is deterministic, a capture is also a replayable
// claim: re-running the captured point and diffing the fresh flight
// timeline against the stored one turns the repo's determinism
// invariant into a runtime-checkable observable (DiffTimelines; POST
// /v1/anomalies/{hash}/replay).
package forensic

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"safesense/internal/sim"
)

// CaptureSchema versions the capture wire format. Decoders reject
// other values rather than guessing.
const CaptureSchema = 1

// Capture kinds beyond the sim anomaly kinds (which are reused
// verbatim: sim.AnomalyCollision, sim.AnomalyFalsePositive,
// sim.AnomalyFalseNegative).
const (
	// KindLatencyOutlier marks a job captured because its wall time
	// exceeded the engine's configured percentile. Unlike the anomaly
	// kinds it is not deterministic, so it is metadata only — never
	// part of the content hash.
	KindLatencyOutlier = "latency_outlier"
	// KindManual marks a capture requested explicitly (safesim
	// -forensic-dir on a run with no anomalies).
	KindManual = "manual"
)

// Wire-format bounds enforced by ValidateCapture so a
// hostile or buggy peer cannot make a coordinator allocate absurd
// state. The sim recorder's own caps (8 dumps of 32 steps) sit well
// inside these.
const (
	MaxCaptureKinds     = 8
	MaxCaptureFlight    = 4096
	MaxCaptureAnomalies = 16
	MaxCaptureStates    = 64
	MaxCapturePhases    = 16
	MaxCapturePoint     = 4096
	maxKindLen          = 32
	maxLabelLen         = 256
	maxCampaignLen      = 128
	maxSpecHashLen      = 64
	maxAttackLen        = 32
)

// Capture is one preserved anomalous run. Point is the campaign grid
// point as raw JSON — kept opaque here so the store has no dependency
// on the campaign package (which itself captures into this store);
// replay sites decode it back into a campaign.Point.
type Capture struct {
	Schema int `json:"schema"`
	// SpecHash identifies the campaign spec the job belongs to
	// (campaign.Spec.Hash); empty for one-off runs.
	SpecHash string `json:"spec_hash,omitempty"`
	// Campaign is the submitting store's campaign ID — display
	// metadata, deliberately outside the content hash so the same
	// (spec, job) anomaly dedups across resubmissions.
	Campaign string `json:"campaign,omitempty"`
	JobIndex int    `json:"job_index"`
	Seed     int64  `json:"seed"`
	Label    string `json:"label,omitempty"`
	Attack   string `json:"attack,omitempty"`
	// Point is the full grid point (campaign.Point JSON) — everything
	// needed to rebuild the scenario and replay the run.
	Point json.RawMessage `json:"point"`
	// Kinds lists why the job was captured (anomaly kinds plus
	// latency_outlier/manual), first occurrence first.
	Kinds []string `json:"kinds"`
	// Flight is the run's full flight-recorder timeline.
	Flight []sim.FlightEvent `json:"flight,omitempty"`
	// Anomalies are the recorder's last-N-step state dumps.
	Anomalies []sim.AnomalyDump `json:"anomalies,omitempty"`
	// Numerics is the sim.NumericsVersion the run was captured under; a
	// capture without it predates the stamp (see NumericsVersion). It
	// stays outside the content hash: a numerics change that moves a
	// run already moves its Flight.
	Numerics int `json:"numerics,omitempty"`
	// Phases are the run's wall-clock phase timings — observability
	// metadata, excluded from the content hash. A campaign capture
	// carries them only when its campaign captures latency outliers;
	// otherwise the job ran untimed and Phases is empty.
	Phases []sim.PhaseTiming `json:"phases,omitempty"`
}

// NumericsVersion returns the sim.NumericsVersion c was captured under,
// 1 for a capture that carries no stamp.
func (c Capture) NumericsVersion() int {
	if c.Numerics == 0 {
		return 1
	}
	return c.Numerics
}

// hashBody is the canonical deterministic subset of a capture: the
// fields that are a pure function of (spec, job index, seed). Phase
// timings (wall clock) and Kinds (latency_outlier is timing-dependent)
// and Campaign (a per-store counter) are deliberately excluded, so the
// same anomaly always lands on the same address no matter where or how
// often it was observed.
type hashBody struct {
	SpecHash  string            `json:"spec_hash"`
	JobIndex  int               `json:"job_index"`
	Seed      int64             `json:"seed"`
	Point     json.RawMessage   `json:"point"`
	Flight    []sim.FlightEvent `json:"flight"`
	Anomalies []sim.AnomalyDump `json:"anomalies"`
}

// Hash returns the capture's content address: the hex SHA-256 of the
// canonical JSON of its deterministic fields. Point bytes round-trip
// verbatim through encoding/json (json.RawMessage), so a capture
// marshaled on a worker and decoded on the coordinator hashes
// identically.
func (c Capture) Hash() (string, error) {
	// Normalize empty slices to nil: Flight/Anomalies are omitempty on
	// the wire, so an empty slice would hash as [] locally but decode
	// as nil on the receiving node, splitting one capture across two
	// addresses.
	flight := c.Flight
	if len(flight) == 0 {
		flight = nil
	}
	anomalies := c.Anomalies
	if len(anomalies) == 0 {
		anomalies = nil
	}
	b, err := json.Marshal(hashBody{
		SpecHash:  c.SpecHash,
		JobIndex:  c.JobIndex,
		Seed:      c.Seed,
		Point:     c.Point,
		Flight:    flight,
		Anomalies: anomalies,
	})
	if err != nil {
		return "", fmt.Errorf("forensic: hashing capture: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ValidateCapture enforces the wire bounds on a capture.
func ValidateCapture(c Capture) error {
	if c.Schema != CaptureSchema {
		return fmt.Errorf("forensic: capture schema %d, want %d", c.Schema, CaptureSchema)
	}
	if c.JobIndex < 0 {
		return fmt.Errorf("forensic: negative job index %d", c.JobIndex)
	}
	if c.Numerics < 0 {
		return fmt.Errorf("forensic: negative numerics version %d", c.Numerics)
	}
	if len(c.SpecHash) > maxSpecHashLen {
		return fmt.Errorf("forensic: spec_hash longer than %d bytes", maxSpecHashLen)
	}
	if len(c.Campaign) > maxCampaignLen {
		return fmt.Errorf("forensic: campaign longer than %d bytes", maxCampaignLen)
	}
	if len(c.Label) > maxLabelLen {
		return fmt.Errorf("forensic: label longer than %d bytes", maxLabelLen)
	}
	if len(c.Attack) > maxAttackLen {
		return fmt.Errorf("forensic: attack longer than %d bytes", maxAttackLen)
	}
	if len(c.Kinds) == 0 {
		return fmt.Errorf("forensic: capture has no kinds")
	}
	if len(c.Kinds) > MaxCaptureKinds {
		return fmt.Errorf("forensic: %d kinds exceed the %d cap", len(c.Kinds), MaxCaptureKinds)
	}
	for _, k := range c.Kinds {
		if k == "" || len(k) > maxKindLen {
			return fmt.Errorf("forensic: kind %q outside (0, %d] bytes", k, maxKindLen)
		}
	}
	if len(c.Point) == 0 || len(c.Point) > MaxCapturePoint {
		return fmt.Errorf("forensic: point outside (0, %d] bytes", MaxCapturePoint)
	}
	if !json.Valid(c.Point) {
		return fmt.Errorf("forensic: point is not valid JSON")
	}
	if len(c.Flight) > MaxCaptureFlight {
		return fmt.Errorf("forensic: %d flight events exceed the %d cap", len(c.Flight), MaxCaptureFlight)
	}
	if len(c.Anomalies) > MaxCaptureAnomalies {
		return fmt.Errorf("forensic: %d anomaly dumps exceed the %d cap", len(c.Anomalies), MaxCaptureAnomalies)
	}
	for _, a := range c.Anomalies {
		if len(a.States) > MaxCaptureStates {
			return fmt.Errorf("forensic: anomaly dump carries %d states, cap is %d", len(a.States), MaxCaptureStates)
		}
	}
	if len(c.Phases) > MaxCapturePhases {
		return fmt.Errorf("forensic: %d phases exceed the %d cap", len(c.Phases), MaxCapturePhases)
	}
	return nil
}

// KindPriority ranks capture kinds for budget-pressure eviction:
// collisions (the paper's headline safety failure) outlive detector
// confusion, which outlives latency outliers and manual captures.
func KindPriority(kind string) int {
	switch kind {
	case sim.AnomalyCollision:
		return 3
	case sim.AnomalyFalseNegative:
		return 2
	case sim.AnomalyFalsePositive:
		return 1
	}
	return 0
}

// PrimaryKind returns a capture's highest-priority kind — the metric
// label and eviction class ("" only for an invalid kindless capture).
func PrimaryKind(c Capture) string {
	best := ""
	bestPri := -1
	for _, k := range c.Kinds {
		if p := KindPriority(k); p > bestPri {
			best, bestPri = k, p
		}
	}
	return best
}

// capturePriority is PrimaryKind's priority.
func capturePriority(c Capture) int {
	p := 0
	for _, k := range c.Kinds {
		if kp := KindPriority(k); kp > p {
			p = kp
		}
	}
	return p
}

// MaxTimelineDiffs bounds a replay diff report; a totally divergent
// replay does not need every mismatching index to make the point.
const MaxTimelineDiffs = 32

// TimelineDiff is one divergence between a stored and a fresh flight
// timeline. A nil side means the event exists only on the other.
type TimelineDiff struct {
	Index  int              `json:"index"`
	Stored *sim.FlightEvent `json:"stored,omitempty"`
	Fresh  *sim.FlightEvent `json:"fresh,omitempty"`
}

// DiffTimelines compares a stored flight timeline against a freshly
// replayed one, returning up to MaxTimelineDiffs divergences (empty
// means byte-identical content — the determinism invariant held).
func DiffTimelines(stored, fresh []sim.FlightEvent) []TimelineDiff {
	n := len(stored)
	if len(fresh) > n {
		n = len(fresh)
	}
	var diffs []TimelineDiff
	for i := 0; i < n && len(diffs) < MaxTimelineDiffs; i++ {
		var s, f *sim.FlightEvent
		if i < len(stored) {
			s = &stored[i]
		}
		if i < len(fresh) {
			f = &fresh[i]
		}
		if s != nil && f != nil && flightEventEqual(*s, *f) {
			continue
		}
		d := TimelineDiff{Index: i}
		if s != nil {
			ev := *s
			d.Stored = &ev
		}
		if f != nil {
			ev := *f
			d.Fresh = &ev
		}
		diffs = append(diffs, d)
	}
	return diffs
}

// flightEventEqual compares two flight events for exact equality. The
// raw float compare is deliberate: replay verifies bit-for-bit
// determinism, so any tolerance would hide exactly the drift the check
// exists to catch.
//
//safesense:floatcmp-helper
func flightEventEqual(a, b sim.FlightEvent) bool {
	return a.K == b.K && a.Kind == b.Kind && a.Value == b.Value && a.Detail == b.Detail
}
