// Package dist scales campaign execution horizontally: a coordinator
// splits one campaign's job grid into leases — contiguous job-index
// ranges — and hands them to workers that pull over the safesensed
// HTTP/JSON API, run their shard with the ordinary campaign engine, and
// push back a mergeable partial aggregate. Because every job's seed is
// a pure function of (spec, index), any partition of the grid is
// byte-stable: the merged campaign.Aggregate is identical to a
// single-node run of the same spec, no matter how many workers
// participated, which worker ran which shard, or how many times a shard
// was re-leased after a worker died.
//
// The moving parts:
//
//   - Coordinator: owns the lease table. Shards are fixed at submission
//     (ceil(jobs/leaseJobs) contiguous ranges); a lease grants one shard
//     to one worker for a TTL. Expired leases are re-granted to the next
//     worker that asks — lease selection is ordered purely by campaign
//     age and shard index, never by wall time, so the injected clock
//     (Config.Clock) is consulted only to decide expiry.
//   - Worker: the pull loop behind `safesensed -join`. Acquire a lease,
//     expand the spec (cached per campaign), run jobs [start, end) on
//     the local pool via campaign.RunJobs, post progress while running
//     (each post is the lease's heartbeat), and complete with the
//     campaign.Partial plus the shard's flight events (collisions,
//     detector confusion).
//   - Checkpoint: a JSONL log of campaign submissions and completed
//     leases. Replaying it with Restore reconstructs the lease table, so
//     a coordinator restart resumes a million-job sweep without
//     recomputing finished shards.
//
// Completion is idempotent and holder-agnostic: results are
// deterministic, so a late completion from a worker whose lease already
// expired (and whose shard was re-leased) is accepted if the shard is
// still open and ignored if it already closed — the data is the same
// either way.
//
// Trace propagation: the campaign's trace ID (minted from the
// submitting request) rides on every lease; workers root their lease
// span under it and stamp it as X-Request-ID on coordinator calls, so
// one trace ID resolves the full cross-node fan-out on either side's
// /debug/traces.
package dist

import (
	"bytes"
	"fmt"

	"safesense/internal/campaign"
	"safesense/internal/obs"
	"safesense/internal/obs/forensic"
	"safesense/internal/obs/trace"
)

// Wire-format bounds. Decoders enforce them so a hostile or buggy peer
// cannot make the coordinator allocate absurd state.
const (
	// MaxWorkerIDLen bounds worker identifiers (they land in logs,
	// lease tables, and status payloads — never in metric labels).
	MaxWorkerIDLen = 64
	// MaxLeaseJobs bounds the jobs-per-lease shard size.
	MaxLeaseJobs = 1 << 16
	// MaxCompleteEvents bounds the flight events one completion may
	// forward; workers truncate, decoders reject beyond it.
	MaxCompleteEvents = 64
	// MaxCompleteCaptures bounds the forensic captures one completion may
	// ship. Workers keep the highest-priority captures when a shard
	// produces more (collisions outlive gap noise); decoders reject
	// payloads beyond the cap.
	MaxCompleteCaptures = 16
	// MaxCompleteSpans bounds the trace spans one completion may ship for
	// cross-node trace stitching.
	MaxCompleteSpans = 128
	// maxLeaseIDLen bounds lease tokens on the wire.
	maxLeaseIDLen = 128
)

// SubmitRequest asks the coordinator to run a campaign distributed.
type SubmitRequest struct {
	Spec campaign.Spec `json:"spec"`
	// LeaseJobs is the shard size in jobs (zero means the coordinator's
	// configured default).
	LeaseJobs int `json:"lease_jobs,omitempty"`
}

// SubmitResponse acknowledges a distributed submission.
type SubmitResponse struct {
	ID     string `json:"id"`
	Jobs   int    `json:"jobs"`
	Leases int    `json:"leases"`
	URL    string `json:"url"`
}

// AcquireRequest is a worker's pull for its next lease.
type AcquireRequest struct {
	WorkerID string `json:"worker_id"`
}

// AcquireResponse grants one lease. The worker must run jobs
// [Start, End) of the spec's expanded grid and complete within the TTL;
// each progress post extends the lease by another TTL.
type AcquireResponse struct {
	LeaseID  string        `json:"lease_id"`
	Campaign string        `json:"campaign"`
	Shard    int           `json:"shard"`
	Start    int           `json:"start"`
	End      int           `json:"end"`
	Spec     campaign.Spec `json:"spec"`
	TraceID  string        `json:"trace_id,omitempty"`
	// TTLSeconds is the lease lifetime; post progress at a fraction of it.
	TTLSeconds float64 `json:"ttl_seconds"`
}

// ProgressRequest is a mid-lease heartbeat: a snapshot of the shard's
// accumulated partial so far plus any flight events discovered since
// the previous post. Every accepted post extends the lease by its TTL.
// The snapshot is best-effort observability — the coordinator keeps
// live partials separate from the completed-lease merge, so a lost or
// reordered post never affects the final aggregate.
type ProgressRequest struct {
	LeaseID  string              `json:"lease_id"`
	WorkerID string              `json:"worker_id"`
	Partial  campaign.Partial    `json:"partial"`
	Events   []campaign.Incident `json:"events,omitempty"`
}

// CompleteRequest delivers a finished shard: the mergeable partial
// aggregate plus the shard's notable flight events, forensic anomaly
// captures, and the worker-side trace spans of the lease. Captures and
// spans are observability sidecars — the coordinator merges them
// idempotently (content hash, span identity) and they never influence
// the aggregate, so the byte-identity oracle is untouched.
type CompleteRequest struct {
	LeaseID  string              `json:"lease_id"`
	WorkerID string              `json:"worker_id"`
	Partial  campaign.Partial    `json:"partial"`
	Events   []campaign.Incident `json:"events,omitempty"`
	Captures []forensic.Capture  `json:"captures,omitempty"`
	Spans    []trace.SpanRecord  `json:"spans,omitempty"`
}

// CompleteResponse acknowledges a completion. Duplicate reports that
// the shard had already closed (the payload was discarded — results are
// deterministic, so nothing is lost).
type CompleteResponse struct {
	Duplicate bool `json:"duplicate,omitempty"`
	// CampaignDone reports that this completion closed the campaign.
	CampaignDone bool `json:"campaign_done,omitempty"`
}

// decodeStrict parses exactly one JSON object into v under the shared
// strict wire contract (obs.DecodeStrict).
func decodeStrict(data []byte, v any) error {
	if err := obs.DecodeStrict(bytes.NewReader(data), v); err != nil {
		return fmt.Errorf("dist: decoding message: %w", err)
	}
	return nil
}

// validWorkerID enforces the worker-identifier contract: non-empty,
// bounded, printable ASCII without spaces, quotes, or backslashes (IDs
// land verbatim in log records and JSON status payloads).
func validWorkerID(id string) error {
	if id == "" {
		return fmt.Errorf("dist: worker_id must not be empty")
	}
	if len(id) > MaxWorkerIDLen {
		return fmt.Errorf("dist: worker_id longer than %d bytes", MaxWorkerIDLen)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '"' || c == '\\' {
			return fmt.Errorf("dist: worker_id contains forbidden byte %q", c)
		}
	}
	return nil
}

// validLeaseID bounds lease tokens (shape is coordinator-internal).
func validLeaseID(id string) error {
	if id == "" {
		return fmt.Errorf("dist: lease_id must not be empty")
	}
	if len(id) > maxLeaseIDLen {
		return fmt.Errorf("dist: lease_id longer than %d bytes", maxLeaseIDLen)
	}
	return nil
}

// DecodeSubmit parses and validates a distributed-campaign submission.
func DecodeSubmit(data []byte) (SubmitRequest, error) {
	var req SubmitRequest
	if err := decodeStrict(data, &req); err != nil {
		return SubmitRequest{}, err
	}
	if req.LeaseJobs < 0 || req.LeaseJobs > MaxLeaseJobs {
		return SubmitRequest{}, fmt.Errorf("dist: lease_jobs %d outside [0, %d]", req.LeaseJobs, MaxLeaseJobs)
	}
	if err := req.Spec.Validate(); err != nil {
		return SubmitRequest{}, err
	}
	return req, nil
}

// DecodeAcquire parses and validates a lease-acquire pull.
func DecodeAcquire(data []byte) (AcquireRequest, error) {
	var req AcquireRequest
	if err := decodeStrict(data, &req); err != nil {
		return AcquireRequest{}, err
	}
	if err := validWorkerID(req.WorkerID); err != nil {
		return AcquireRequest{}, err
	}
	return req, nil
}

// validReport checks what progress posts and completions share:
// identifier bounds, the shard-size cap, partial-aggregate internal
// consistency and the event cap. Range checks against the actual lease
// are the coordinator's job (the decoders have no lease table).
func validReport(leaseID, workerID string, p campaign.Partial, events int) error {
	if err := validLeaseID(leaseID); err != nil {
		return err
	}
	if err := validWorkerID(workerID); err != nil {
		return err
	}
	if p.Jobs > MaxLeaseJobs {
		return fmt.Errorf("dist: partial covers %d jobs, lease cap is %d", p.Jobs, MaxLeaseJobs)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if events > MaxCompleteEvents {
		return fmt.Errorf("dist: %d events exceed the %d-event cap", events, MaxCompleteEvents)
	}
	return nil
}

// DecodeComplete parses and validates a lease completion: the shared
// report checks plus the capture and span caps.
func DecodeComplete(data []byte) (CompleteRequest, error) {
	var req CompleteRequest
	if err := decodeStrict(data, &req); err != nil {
		return CompleteRequest{}, err
	}
	if err := validReport(req.LeaseID, req.WorkerID, req.Partial, len(req.Events)); err != nil {
		return CompleteRequest{}, err
	}
	if len(req.Captures) > MaxCompleteCaptures {
		return CompleteRequest{}, fmt.Errorf("dist: %d captures exceed the %d-capture cap", len(req.Captures), MaxCompleteCaptures)
	}
	for i, c := range req.Captures {
		if err := forensic.ValidateCapture(c); err != nil {
			return CompleteRequest{}, fmt.Errorf("dist: capture %d: %w", i, err)
		}
	}
	if len(req.Spans) > MaxCompleteSpans {
		return CompleteRequest{}, fmt.Errorf("dist: %d spans exceed the %d-span cap", len(req.Spans), MaxCompleteSpans)
	}
	return req, nil
}

// DecodeProgress parses and validates a mid-lease heartbeat under the
// shared report checks.
func DecodeProgress(data []byte) (ProgressRequest, error) {
	var req ProgressRequest
	if err := decodeStrict(data, &req); err != nil {
		return ProgressRequest{}, err
	}
	if err := validReport(req.LeaseID, req.WorkerID, req.Partial, len(req.Events)); err != nil {
		return ProgressRequest{}, err
	}
	return req, nil
}

// OutcomeEvents derives the forwardable incidents of a shard's
// outcomes (campaign.Incidents per job), truncated at MaxCompleteEvents
// so one pathological shard cannot flood the coordinator.
func OutcomeEvents(outcomes []campaign.Outcome) []campaign.Incident {
	var evs []campaign.Incident
	for _, o := range outcomes {
		for _, ev := range campaign.Incidents(o) {
			if len(evs) >= MaxCompleteEvents {
				return evs
			}
			evs = append(evs, ev)
		}
	}
	return evs
}

// eventKey is the identity progress dedup uses: incidents are
// deterministic per job, so kind+job+detail names one uniquely.
func eventKey(ev campaign.Incident) string {
	return fmt.Sprintf("%s|%d|%s", ev.Kind, ev.JobIndex, ev.Detail)
}
