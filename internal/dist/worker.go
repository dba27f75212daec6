package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"safesense/internal/campaign"
	"safesense/internal/obs"
	"safesense/internal/obs/forensic"
	obstrace "safesense/internal/obs/trace"
)

// WorkerConfig tunes a pull worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (e.g. http://host:8077).
	Coordinator string
	// ID names this worker in lease grants and status payloads (empty
	// means "<hostname>-<pid>", sanitized).
	ID string
	// Client is the HTTP client used for coordinator calls (nil means
	// a client with a 30s timeout).
	Client *http.Client
	// Jobs bounds the local per-lease worker pool (<= 0 means
	// GOMAXPROCS).
	Jobs int
	// PollInterval is the idle wait between empty acquire pulls (zero
	// means 500ms).
	PollInterval time.Duration
	// ProgressInterval is how often a held lease posts a snapshot of its
	// partial aggregate to the coordinator (zero or negative means 2s).
	// The post is also the lease's heartbeat, so it is tightened to a
	// third of the lease TTL when that is shorter. The snapshot is
	// best-effort: a failed post is retried at the next tick and never
	// affects the final aggregate.
	ProgressInterval time.Duration
	// Log receives the worker's structured records (nil discards).
	Log *slog.Logger
	// Traces is the span store lease spans root into (nil means
	// trace.Default()).
	Traces *obstrace.Store
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.ID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		c.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.PollInterval == 0 {
		c.PollInterval = 500 * time.Millisecond
	}
	if c.ProgressInterval <= 0 {
		c.ProgressInterval = 2 * time.Second
	}
	if c.Log == nil {
		c.Log = slog.New(obs.DiscardHandler{})
	}
	if c.Traces == nil {
		c.Traces = obstrace.Default()
	}
	return c
}

// specCacheSize bounds the worker's expanded-grid cache; grids are
// O(jobs) so a handful of concurrent campaigns is plenty.
const specCacheSize = 4

// Worker pulls leases from a coordinator and runs them on the local
// campaign engine. One Worker runs one Run loop; it is not safe for
// concurrent Run calls.
type Worker struct {
	cfg        WorkerConfig
	base       string
	jobCache   map[string][]campaign.Job
	cacheOrder []string
}

// NewWorker validates the config and builds a worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	cfg = cfg.withDefaults()
	if err := validWorkerID(cfg.ID); err != nil {
		return nil, err
	}
	base := strings.TrimRight(cfg.Coordinator, "/")
	if base == "" {
		return nil, fmt.Errorf("dist: worker needs a coordinator URL")
	}
	return &Worker{cfg: cfg, base: base, jobCache: make(map[string][]campaign.Job)}, nil
}

// Run pulls and executes leases until ctx is cancelled. Transient
// coordinator failures back off and retry; the loop only exits with
// ctx.Err().
func (w *Worker) Run(ctx context.Context) error {
	w.cfg.Log.Info("dist worker joining", "coordinator", w.base, "worker", w.cfg.ID)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, ok, err := w.acquire(ctx)
		if err != nil {
			w.cfg.Log.Warn("dist acquire failed", "error", err.Error())
			if !sleepCtx(ctx, w.cfg.PollInterval) {
				return ctx.Err()
			}
			continue
		}
		if !ok {
			if !sleepCtx(ctx, w.cfg.PollInterval) {
				return ctx.Err()
			}
			continue
		}
		if err := w.execute(ctx, lease); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			metricWorkerLeaseFailures.With().Inc()
			w.cfg.Log.Error("dist lease abandoned",
				"lease", lease.LeaseID, "campaign", lease.Campaign, "error", err.Error())
			if !sleepCtx(ctx, w.cfg.PollInterval) {
				return ctx.Err()
			}
		}
	}
}

// acquire pulls the next lease; ok is false when the coordinator has no
// open work.
func (w *Worker) acquire(ctx context.Context) (AcquireResponse, bool, error) {
	var lease AcquireResponse
	status, err := w.postJSON(ctx, "/v1/dist/lease", AcquireRequest{WorkerID: w.cfg.ID}, &lease, "")
	if err != nil {
		return AcquireResponse{}, false, err
	}
	switch status {
	case http.StatusOK:
		return lease, true, nil
	case http.StatusNoContent:
		return AcquireResponse{}, false, nil
	default:
		return AcquireResponse{}, false, fmt.Errorf("dist: acquire returned status %d", status)
	}
}

// execute runs one lease: expand (cached), run the shard on the local
// pool under the lease's heartbeat, then complete with the partial
// aggregate and the shard's flight events.
func (w *Worker) execute(ctx context.Context, lease AcquireResponse) error {
	start := wallClock()
	// Every lease of a campaign shares its trace ID, so the completion
	// ships only the spans stored after this mark.
	mark := w.cfg.Traces.Mark()
	leaseCtx, span := w.cfg.Traces.Root(ctx, "dist.lease", lease.TraceID)
	defer span.End()
	span.SetAttr("campaign", lease.Campaign)
	span.SetAttrInt("shard", int64(lease.Shard))
	span.SetAttrInt("start", int64(lease.Start))
	span.SetAttrInt("end", int64(lease.End))
	span.SetAttr("worker", w.cfg.ID)
	jobs, err := w.jobsFor(lease)
	if err != nil {
		return err
	}
	shard := jobs[lease.Start:lease.End]
	w.cfg.Log.Info("dist lease acquired",
		"lease", lease.LeaseID, "campaign", lease.Campaign, "shard", lease.Shard,
		"start", lease.Start, "end", lease.End)

	// The heartbeat keeps the lease alive while the shard runs; a lost
	// lease (410) cancels the run — the shard was reassigned, so
	// finishing it here would only duplicate deterministic work.
	runCtx, cancelRun := context.WithCancel(leaseCtx)
	defer cancelRun()
	hb := newHeartbeat(w, lease)

	// Captures stay anomaly-only on workers (no latency-outlier kind):
	// anomaly captures are deterministic, so the coordinator's
	// hash-dedup collapses re-leased and retried shards to one stored
	// copy per incident.
	collector := &captureCollector{}
	opts := campaign.Options{
		Workers:   w.cfg.Jobs,
		Log:       w.cfg.Log.With("campaign", lease.Campaign, "lease", lease.LeaseID),
		Campaign:  lease.Campaign,
		OnOutcome: hb.onOutcome,
		Forensic: &campaign.ForensicOptions{
			Sink:     collector.add,
			SpecHash: lease.Spec.Hash(),
		},
	}
	stop := hb.start(runCtx, cancelRun)
	outcomes, runErr := campaign.RunJobs(runCtx, shard, opts)
	stop()
	if runErr != nil {
		if ctx.Err() == nil && leaseCtx.Err() == nil && runCtx.Err() != nil {
			return fmt.Errorf("dist: lease %s lost mid-run: %w", lease.LeaseID, runErr)
		}
		return runErr
	}

	events := hb.remainingEvents(OutcomeEvents(outcomes))
	// Close the lease span now (End is idempotent; the defer becomes a
	// no-op) so it flushes into the store and ships with the completion —
	// the coordinator stitches it under the campaign root. Over the wire
	// cap the newest spans ship: a span ends after its children, so that
	// suffix holds the lease span (ended last) and the parent of every
	// span in it — no shipped span is an orphan.
	span.End()
	spans := w.cfg.Traces.Since(lease.TraceID, mark)
	if len(spans) > MaxCompleteSpans {
		spans = spans[len(spans)-MaxCompleteSpans:]
	}
	req := CompleteRequest{
		LeaseID:  lease.LeaseID,
		WorkerID: w.cfg.ID,
		Partial:  campaign.PartialOfOutcomes(outcomes),
		Events:   events,
		Captures: collector.take(),
		Spans:    spans,
	}
	var resp CompleteResponse
	if err := w.completeWithRetry(ctx, req, &resp, lease.TraceID); err != nil {
		return err
	}
	metricWorkerLeaseSeconds.With().ObserveDuration(wallClock().Sub(start))
	w.cfg.Log.Info("dist lease completed",
		"lease", lease.LeaseID, "campaign", lease.Campaign, "jobs", len(shard),
		"duplicate", resp.Duplicate, "campaign_done", resp.CampaignDone)
	return nil
}

// captureCollector accumulates a lease's forensic captures under the
// MaxCompleteCaptures wire cap. When a shard produces more, the
// lowest-priority resident is displaced by a higher-priority newcomer,
// so collisions outlive gap noise — the same policy the store's
// eviction applies. Pool workers call add concurrently.
type captureCollector struct {
	mu   sync.Mutex
	caps []forensic.Capture
}

func (cc *captureCollector) add(c forensic.Capture) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if len(cc.caps) < MaxCompleteCaptures {
		cc.caps = append(cc.caps, c)
		return
	}
	// Displace the first resident of the lowest priority below c's.
	low, lowPri := -1, forensic.KindPriority(forensic.PrimaryKind(c))
	for i, r := range cc.caps {
		if p := forensic.KindPriority(forensic.PrimaryKind(r)); p < lowPri {
			low, lowPri = i, p
		}
	}
	if low >= 0 {
		cc.caps[low] = c
	}
}

// take returns the collected captures ordered by job index — pool
// completion order is racy, so the wire payload is re-sorted into the
// deterministic grid order.
func (cc *captureCollector) take() []forensic.Capture {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	caps := cc.caps
	cc.caps = nil
	sort.Slice(caps, func(i, j int) bool { return caps[i].JobIndex < caps[j].JobIndex })
	return caps
}

// jobsFor expands the lease's spec, caching the grid per campaign so a
// worker holding many leases of one sweep expands it once.
func (w *Worker) jobsFor(lease AcquireResponse) ([]campaign.Job, error) {
	if jobs, ok := w.jobCache[lease.Campaign]; ok {
		if err := checkLeaseRange(lease, len(jobs)); err != nil {
			return nil, err
		}
		return jobs, nil
	}
	jobs, err := lease.Spec.Expand()
	if err != nil {
		return nil, fmt.Errorf("dist: expanding campaign %s: %w", lease.Campaign, err)
	}
	if err := checkLeaseRange(lease, len(jobs)); err != nil {
		return nil, err
	}
	if len(w.cacheOrder) >= specCacheSize {
		delete(w.jobCache, w.cacheOrder[0])
		w.cacheOrder = w.cacheOrder[1:]
	}
	w.jobCache[lease.Campaign] = jobs
	w.cacheOrder = append(w.cacheOrder, lease.Campaign)
	return jobs, nil
}

// checkLeaseRange guards the shard slice against a malformed grant.
func checkLeaseRange(lease AcquireResponse, jobs int) error {
	if lease.Start < 0 || lease.End < lease.Start || lease.End > jobs {
		return fmt.Errorf("dist: lease %s range [%d, %d) outside grid of %d jobs",
			lease.LeaseID, lease.Start, lease.End, jobs)
	}
	return nil
}

// completeRetries bounds completion attempts before the lease is
// abandoned to expiry-driven reassignment.
const completeRetries = 3

func (w *Worker) completeWithRetry(ctx context.Context, req CompleteRequest, resp *CompleteResponse, traceID string) error {
	var lastErr error
	for attempt := 0; attempt < completeRetries; attempt++ {
		if attempt > 0 && !sleepCtx(ctx, time.Duration(attempt)*200*time.Millisecond) {
			return ctx.Err()
		}
		status, err := w.postJSON(ctx, "/v1/dist/lease/complete", req, resp, traceID)
		if err != nil {
			lastErr = err
			continue
		}
		switch status {
		case http.StatusOK:
			return nil
		case http.StatusConflict, http.StatusBadRequest:
			// Rejected payloads will not improve on retry.
			return fmt.Errorf("dist: completion rejected with status %d", status)
		default:
			lastErr = fmt.Errorf("dist: complete returned status %d", status)
		}
	}
	return fmt.Errorf("dist: completing lease %s: %w", req.LeaseID, lastErr)
}

// postJSON posts one JSON message and decodes the response when the
// status carries a body. The campaign's trace ID (when known) rides on
// X-Request-ID so the coordinator's middleware joins its records to the
// same trace.
func (w *Worker) postJSON(ctx context.Context, path string, in, out any, traceID string) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, fmt.Errorf("dist: encoding request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set("X-Request-ID", traceID)
	}
	res, err := w.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer res.Body.Close()
	if res.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(io.LimitReader(res.Body, maxDistBodyBytes)).Decode(out); err != nil {
			return res.StatusCode, fmt.Errorf("dist: decoding response: %w", err)
		}
	}
	return res.StatusCode, nil
}

// sleepCtx waits d or until ctx is cancelled, reporting whether the
// full wait elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
