package profile

import "safesense/internal/obs"

var (
	metricCaptures = obs.Default().Counter(
		"safesense_profile_captures_total",
		"Continuous-profiler captures stored.")
	metricCaptureErrors = obs.Default().Counter(
		"safesense_profile_capture_errors_total",
		"Continuous-profiler windows that failed to start or could not be read.")
	metricEvictions = obs.Default().Counter(
		"safesense_profile_evictions_total",
		"Profile captures evicted to stay within the store budget.")
	metricLiveCaptures = obs.Default().Gauge(
		"safesense_profile_live_captures",
		"Profile captures currently resident in the store.")
	metricLiveBytes = obs.Default().Gauge(
		"safesense_profile_live_bytes",
		"Raw bytes of the resident profile captures.")
	// metricPhaseCPUShare's label values are bounded by the profiler's
	// phase whitelist plus the "other" bucket — never raw sample labels.
	metricPhaseCPUShare = obs.Default().Gauge(
		"safesense_profile_phase_cpu_share",
		"Fraction of the latest capture's CPU attributed to each pipeline phase.",
		"phase")
)
