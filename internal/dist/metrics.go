package dist

import "safesense/internal/obs"

// Process-wide lease metrics on the default registry, exposed by
// safesensed at /metrics. Deliberately label-free: worker IDs are
// unbounded-cardinality and belong in the status payload, not in
// metric labels (the metriclabels analyzer's contract).
var (
	metricCampaignsActive = obs.Default().Gauge(
		"safesense_dist_campaigns_active",
		"Distributed campaigns currently running on this coordinator.")
	metricLeasesGranted = obs.Default().Counter(
		"safesense_dist_leases_granted_total",
		"Leases granted to workers (including re-grants of expired leases).")
	metricLeasesExpired = obs.Default().Counter(
		"safesense_dist_leases_expired_total",
		"Leases reclaimed after their holder went a TTL without a progress post.")
	metricLeasesCompleted = obs.Default().Counter(
		"safesense_dist_leases_completed_total",
		"Leases completed with a valid partial aggregate.")
	metricProgressUpdates = obs.Default().Counter(
		"safesense_dist_progress_updates_total",
		"Mid-lease progress snapshots accepted into the live campaign view.")
	metricLeaseJobsDone = obs.Default().Counter(
		"safesense_dist_lease_jobs_done_total",
		"Jobs delivered through completed leases.")
	metricWorkerLeaseSeconds = obs.Default().Histogram(
		"safesense_dist_worker_lease_seconds",
		"Worker-side wall time from lease acquisition to completion.",
		obs.DefBuckets)
	metricWorkerLeaseFailures = obs.Default().Counter(
		"safesense_dist_worker_lease_failures_total",
		"Worker-side lease executions abandoned (lost lease, failed jobs, or unreachable coordinator).")
)
