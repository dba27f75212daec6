package campaign

import (
	"time"

	"safesense/internal/obs"
)

// Process-wide engine metrics on the default registry, exposed by
// safesensed at /metrics.
var (
	metricJobsDone = obs.Default().Counter(
		"safesense_campaign_jobs_done_total",
		"Completed campaign jobs across all sweeps.")
	metricJobsFailed = obs.Default().Counter(
		"safesense_campaign_jobs_failed_total",
		"Campaign jobs that returned an error (aborts the sweep).")
	metricJobSeconds = obs.Default().Histogram(
		"safesense_campaign_job_seconds",
		"Per-job wall time (scenario expansion + simulation + aggregation record).",
		obs.DefBuckets)
	metricQueueWaitSeconds = obs.Default().Histogram(
		"safesense_campaign_queue_wait_seconds",
		"Time a worker spent idle waiting for its next job.",
		obs.DefBuckets)
	metricWorkerBusySeconds = obs.Default().Counter(
		"safesense_campaign_worker_busy_seconds_total",
		"Cumulative wall time workers spent executing jobs.")
	metricActiveCampaigns = obs.Default().Gauge(
		"safesense_campaign_active",
		"Campaign sweeps currently executing.")
)

// Stats is the cumulative progress-with-timing report delivered with
// every outcome to Options.OnOutcome. RunsPerSec and ETA are derived
// from the sweep's own clock, so pollers (the safesensed status
// endpoint) don't have to re-derive them.
type Stats struct {
	// Done counts completed jobs.
	Done int
	// RunsPerSec is the mean completion rate so far (0 until measurable).
	RunsPerSec float64
	// ETA estimates the remaining wall time at the current rate (0 until
	// measurable).
	ETA time.Duration
}

// statsAt derives the cumulative Stats for done jobs out of total after
// elapsed wall time.
func statsAt(done, total int, elapsed time.Duration) Stats {
	st := Stats{Done: done}
	if elapsed > 0 && done > 0 {
		st.RunsPerSec = float64(done) / elapsed.Seconds()
		st.ETA = time.Duration(float64(total-done) / st.RunsPerSec * float64(time.Second))
	}
	return st
}
