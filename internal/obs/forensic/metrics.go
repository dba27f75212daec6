package forensic

import (
	"safesense/internal/obs"

	"safesense/internal/sim"
)

// Process-wide forensic-store metrics on the default registry, exposed
// by safesensed at /metrics. The kind label is bounded by kindLabel's
// fixed vocabulary (the metriclabels analyzer's contract); hashes,
// campaign IDs, and labels never become label values.
var (
	metricCaptures = obs.Default().Counter(
		"safesense_forensic_captures_total",
		"Anomaly captures accepted into the forensic store, by primary kind.",
		"kind")
	metricDuplicates = obs.Default().Counter(
		"safesense_forensic_duplicates_total",
		"Captures whose content hash was already stored (fleet-wide dedup hits).")
	metricEvictions = obs.Default().Counter(
		"safesense_forensic_evictions_total",
		"Captures evicted under budget pressure, by primary kind.",
		"kind")
	metricLiveCaptures = obs.Default().Gauge(
		"safesense_forensic_captures",
		"Captures currently resident in the forensic store.")
	metricLiveBytes = obs.Default().Gauge(
		"safesense_forensic_live_bytes",
		"Encoded bytes of the captures currently resident in the forensic store.")
	metricReplays = obs.Default().Counter(
		"safesense_forensic_replays_total",
		"Capture replays served, by verdict: identical, stale (another numerics version) or diverged.",
		"result")
)

// kindLabel collapses a capture kind onto the fixed metric vocabulary.
func kindLabel(kind string) string {
	switch kind {
	case sim.AnomalyCollision, sim.AnomalyFalsePositive, sim.AnomalyFalseNegative,
		KindLatencyOutlier, KindManual:
		return kind
	}
	return "other"
}

// Replay verdicts, which are also the replay metric's label values.
const (
	// ReplayIdentical: the fresh timeline matched the stored one.
	ReplayIdentical = "identical"
	// ReplayStale: the timelines differ, and the capture was taken under
	// another sim.NumericsVersion.
	ReplayStale = "stale"
	// ReplayDiverged: the timelines differ at the current numerics.
	ReplayDiverged = "diverged"
)

// CountReplay records a replay verdict, one of the Replay constants, on
// the forensic metrics.
func CountReplay(verdict string) {
	metricReplays.With(verdict).Inc()
}
