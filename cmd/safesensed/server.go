package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"safesense/internal/campaign"
	"safesense/internal/dist"
	"safesense/internal/obs"
	"safesense/internal/obs/forensic"
	"safesense/internal/obs/profile"
	"safesense/internal/obs/stream"
	obstrace "safesense/internal/obs/trace"
	"safesense/internal/report"
	"safesense/internal/sim"
)

// Config tunes the service.
type Config struct {
	// Workers bounds each campaign's worker pool (<= 0 means GOMAXPROCS).
	Workers int
	// MaxCampaigns bounds the in-memory campaign store; submissions evict
	// the oldest finished campaign when full, and are rejected when every
	// stored campaign is still running (zero means 64).
	MaxCampaigns int
	// MaxJobs rejects campaign specs that expand beyond this many runs
	// (zero means 100000).
	MaxJobs int
	// MaxBodyBytes bounds request bodies on the POST endpoints; larger
	// bodies get 413 (zero means 1 MiB).
	MaxBodyBytes int64
	// Log receives structured request and campaign lifecycle records
	// (nil means slog.Default()).
	Log *slog.Logger
	// Metrics is the registry behind GET /metrics and the HTTP
	// instrumentation (nil means obs.Default(), which also carries the
	// simulator and campaign-engine families).
	Metrics *obs.Registry
	// Traces is the span store behind GET /debug/traces and the
	// per-request trace roots (nil means trace.Default()).
	Traces *obstrace.Store
	// Dist is the distributed-campaign coordinator mounted under
	// /v1/dist/ (nil means one with default lease sizing, sharing this
	// config's Log, Traces, and Streams).
	Dist *dist.Coordinator
	// Streams is the broadcast hub behind the SSE endpoints; local
	// campaigns and the dist coordinator publish to it, one topic per
	// campaign ID (nil means a fresh hub with the default replay ring).
	Streams *stream.Hub
	// Forensic is the anomaly-capture store behind GET /v1/anomalies.
	// Local campaigns capture into it directly; the dist coordinator
	// merges worker-shipped captures into it. Nil means a memory-only
	// store (captures survive until eviction or restart); point it at a
	// directory via forensic.Open to persist across restarts.
	Forensic *forensic.Store
	// ForensicLatencyPct additionally captures local-campaign jobs whose
	// wall time exceeds this percentile of recent jobs (0 disables).
	ForensicLatencyPct float64
	// Profiles is the continuous-profiler capture store behind GET
	// /v1/profiles. Nil means the endpoints report 404 (profiling
	// disabled); main wires a store when -profile-interval > 0.
	Profiles *profile.Store
}

func (c Config) withDefaults() Config {
	if c.MaxCampaigns == 0 {
		c.MaxCampaigns = 64
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = 100000
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default()
	}
	if c.Traces == nil {
		c.Traces = obstrace.Default()
	}
	if c.Streams == nil {
		c.Streams = stream.NewHub(0)
	}
	if c.Forensic == nil {
		// Memory-only store; Open cannot fail without a directory.
		c.Forensic, _ = forensic.Open(forensic.Options{Log: c.Log})
	}
	if c.Dist == nil {
		c.Dist = dist.NewCoordinator(dist.Config{
			Log: c.Log, Traces: c.Traces, Streams: c.Streams, Forensic: c.Forensic,
		})
	}
	return c
}

// Campaign lifecycle states.
const (
	statusRunning   = "running"
	statusDone      = "done"
	statusFailed    = "failed"
	statusCancelled = "cancelled"
)

// CampaignEvent is one audit-log entry of a stored campaign, served by
// GET /v1/campaigns/{id}/events and, for incidents, as the local
// stream's flight frames. A job incident (campaign.Incidents) carries
// its job_index; a lifecycle transition (submitted, then the terminal
// status reused verbatim as its kind) carries job_index -1, no job.
type CampaignEvent struct {
	Time time.Time `json:"time"`
	campaign.Incident
}

// eventSubmitted is the first lifecycle kind; the terminal statuses
// follow it as kinds.
const eventSubmitted = "submitted"

// lifecycleEvent builds a lifecycle audit entry.
func lifecycleEvent(t time.Time, kind, detail string) CampaignEvent {
	return CampaignEvent{Time: t, Incident: campaign.Incident{Kind: kind, JobIndex: -1, Detail: detail}}
}

// entry is one stored campaign.
type entry struct {
	ID        string
	TraceID   string
	Status    string
	Spec      campaign.Spec
	Jobs      int
	Done      int
	CreatedAt time.Time

	// RunsPerSec and ETASeconds mirror the engine's latest Stats while
	// the campaign runs.
	RunsPerSec float64
	ETASeconds float64

	Summary *campaign.Summary
	Err     string

	Events []CampaignEvent

	cancel context.CancelFunc
}

// terminal reports whether the campaign will never change again.
func (e *entry) terminal() bool { return e.Status != statusRunning }

// addEvent appends to the campaign's bounded event log. Callers hold s.mu.
func (e *entry) addEvent(ev CampaignEvent) {
	if len(e.Events) < campaign.MaxEventLog {
		e.Events = append(e.Events, ev)
	}
}

// Server is the safesensed HTTP service: single runs, async campaign
// sweeps over a bounded in-memory store, metrics, traces, and health.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the observability middleware
	metrics *httpMetrics
	traces  *obstrace.Store
	started time.Time

	mu        sync.Mutex
	campaigns map[string]*entry
	order     []string // insertion order, for eviction
	nextID    int

	// wg tracks campaign goroutines so tests and shutdown can drain them.
	wg sync.WaitGroup
}

// NewServer wires the routes.
func NewServer(cfg Config) *Server {
	s := &Server{
		cfg:       cfg.withDefaults(),
		campaigns: make(map[string]*entry),
		mux:       http.NewServeMux(),
		started:   time.Now(),
	}
	s.traces = s.cfg.Traces
	s.metrics = newHTTPMetrics(s.cfg.Metrics)
	// Runtime/GC telemetry (go_heap_bytes, go_goroutines, go_gc_cycles,
	// go_gc_pause_seconds, go_sched_latency_seconds) is refreshed on
	// every scrape so the exposition always carries current values.
	runtimeCollector := obs.NewRuntimeCollector(s.cfg.Metrics)
	metricsHandler := s.cfg.Metrics.Handler()
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		runtimeCollector.Collect()
		metricsHandler.ServeHTTP(w, r)
	})
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/stream", s.handleCampaignStream)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)
	// Anomaly forensics: the capture store behind every campaign.
	s.mux.HandleFunc("GET /v1/anomalies", s.handleAnomalies)
	s.mux.HandleFunc("GET /v1/anomalies/{hash}", s.handleAnomaly)
	s.mux.HandleFunc("POST /v1/anomalies/{hash}/replay", s.handleAnomalyReplay)
	// Continuous profiling: the capture store the background profiler
	// fills when -profile-interval is set.
	s.mux.HandleFunc("GET /v1/profiles", s.handleProfiles)
	s.mux.HandleFunc("GET /v1/profiles/{id}", s.handleProfile)
	// Distributed campaigns: coordinator endpoints under /v1/dist/,
	// behind the same observability middleware as every other route.
	s.cfg.Dist.Register(s.mux)
	s.handler = s.withObservability(s.mux)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Drain blocks until every in-flight campaign goroutine has exited.
func (s *Server) Drain() { s.wg.Wait() }

// decodeBody strictly decodes one JSON object into v, bounding the body
// at cfg.MaxBodyBytes.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := obs.DecodeStrict(r.Body, v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.campaigns)
	running := 0
	for _, e := range s.campaigns {
		if !e.terminal() {
			running++
		}
	}
	s.mu.Unlock()
	resp := map[string]any{
		"ok":                true,
		"campaigns_stored":  n,
		"campaigns_running": running,
		"uptime_seconds":    time.Since(s.started).Seconds(),
		"go_version":        runtime.Version(),
	}
	if rev := obs.VCSRevision(); rev != "" {
		resp["vcs_revision"] = rev
	}
	obs.WriteJSON(w, http.StatusOK, resp)
}

// Trace-list bounds: the default keeps the payload small for humans
// poking the endpoint; ?limit=N raises it up to the clamp.
const (
	defaultTraceLimit = 100
	maxTraceLimit     = 1000
)

// handleTraces serves the in-memory span store: the most recent traces
// by default (bounded; ?limit=N up to 1000), one trace's full span set
// with ?trace=<id>.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("trace"); id != "" {
		spans := s.traces.Trace(id)
		if len(spans) == 0 {
			obs.WriteError(w, r, http.StatusNotFound, fmt.Errorf("no recorded trace %q", id))
			return
		}
		obs.WriteJSON(w, http.StatusOK, map[string]any{"trace_id": id, "spans": spans})
		return
	}
	limit := defaultTraceLimit
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			obs.WriteError(w, r, http.StatusBadRequest, fmt.Errorf("limit must be a positive integer, got %q", q))
			return
		}
		limit = min(n, maxTraceLimit)
	}
	sums := s.traces.Summaries() // oldest first
	total := len(sums)
	if total > limit {
		sums = sums[total-limit:]
	}
	stats := s.traces.Stats()
	obs.WriteJSON(w, http.StatusOK, map[string]any{
		"traces":        sums,
		"total":         total,
		"evicted_spans": stats.EvictedSpans,
	})
}

// RunRequest is the single-scenario request: a campaign grid point plus
// response options.
type RunRequest struct {
	campaign.Point
	// IncludeTraces ships the full distance/velocity/speed traces in the
	// response (large).
	IncludeTraces bool `json:"include_traces,omitempty"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		obs.WriteError(w, r, obs.BodyStatus(err), err)
		return
	}
	scenario, err := req.Point.Scenario()
	if err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, err)
		return
	}
	if err := scenario.Validate(); err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, err)
		return
	}
	// A plain answer reads no phase clock and omits rls_time_ns; a
	// diagnostics request (include_traces) is Traced, which includes
	// Timed, so it ships the series, rls_time_ns and phase samples.
	detail := sim.Summary
	if req.IncludeTraces {
		detail = sim.Traced
	}
	res, err := sim.RunContext(sim.WithDetail(r.Context(), detail), scenario)
	if err != nil {
		obs.WriteError(w, r, http.StatusInternalServerError, err)
		return
	}
	obs.WriteJSON(w, http.StatusOK, report.Summarize(res, req.IncludeTraces))
}

// SubmitRequest asks for an async campaign sweep.
type SubmitRequest struct {
	Spec campaign.Spec `json:"spec"`
	// Workers overrides the server's per-campaign pool size (optional).
	Workers int `json:"workers,omitempty"`
	// DiscardOutcomes keeps only the aggregate in the final summary.
	DiscardOutcomes bool `json:"discard_outcomes,omitempty"`
}

// SubmitResponse acknowledges a submission.
type SubmitResponse struct {
	ID   string `json:"id"`
	Jobs int    `json:"jobs"`
	URL  string `json:"url"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		obs.WriteError(w, r, obs.BodyStatus(err), err)
		return
	}
	jobs, err := req.Spec.NumJobs()
	if err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, err)
		return
	}
	if jobs > s.cfg.MaxJobs {
		obs.WriteError(w, r, http.StatusBadRequest,
			fmt.Errorf("campaign expands to %d jobs, server cap is %d", jobs, s.cfg.MaxJobs))
		return
	}
	workers := req.Workers
	if workers <= 0 {
		workers = s.cfg.Workers
	}

	// The sweep outlives the request, so it gets its own root span — but
	// under the submitting request's trace ID, so the submitter's
	// X-Request-ID resolves to the whole fan-out in /debug/traces.
	// Detaching from r.Context() is the point: the submitted campaign
	// must keep running after the submitting HTTP request returns, and
	// is cancelled through its own handle (DELETE /campaigns/{id} or
	// server shutdown), never by the request ending.
	//safesense:allow ctxflow deliberate detach: async campaign outlives the submitting request; cancellation via campaign handle
	ctx, cancel := context.WithCancel(context.Background())
	ctx, cspan := s.traces.Root(ctx, "campaign.async", obstrace.ID(r.Context()))

	s.mu.Lock()
	if !s.evictLocked() {
		s.mu.Unlock()
		cancel()
		cspan.End()
		obs.WriteError(w, r, http.StatusServiceUnavailable,
			fmt.Errorf("campaign store full (%d running)", s.cfg.MaxCampaigns))
		return
	}
	s.nextID++
	e := &entry{
		ID:        fmt.Sprintf("c%06d", s.nextID),
		TraceID:   cspan.TraceID(),
		Status:    statusRunning,
		Spec:      req.Spec,
		Jobs:      jobs,
		CreatedAt: time.Now(),
		cancel:    cancel,
	}
	e.addEvent(lifecycleEvent(e.CreatedAt, eventSubmitted,
		fmt.Sprintf("%d jobs on %d workers", jobs, workers)))
	s.campaigns[e.ID] = e
	s.order = append(s.order, e.ID)
	s.mu.Unlock()

	cspan.SetAttr("campaign_id", e.ID)
	s.wg.Add(1)
	go s.runCampaign(ctx, cspan, e, workers, req.DiscardOutcomes)

	s.reqLog(r.Context()).Info("campaign submitted",
		"id", e.ID, "jobs", jobs, "workers", workers, "name", req.Spec.Name)
	obs.WriteJSON(w, http.StatusAccepted, SubmitResponse{ID: e.ID, Jobs: jobs, URL: "/v1/campaigns/" + e.ID})
}

// evictLocked makes room for one more campaign, dropping the oldest
// terminal entry if needed. It reports false when the store is full of
// running campaigns. Callers hold s.mu.
func (s *Server) evictLocked() bool {
	if len(s.campaigns) < s.cfg.MaxCampaigns {
		return true
	}
	for i, id := range s.order {
		if e := s.campaigns[id]; e != nil && e.terminal() {
			delete(s.campaigns, id)
			s.order = append(s.order[:i], s.order[i+1:]...)
			return true
		}
	}
	return false
}

func (s *Server) runCampaign(ctx context.Context, cspan *obstrace.Span, e *entry, workers int, discard bool) {
	defer s.wg.Done()
	defer cspan.End()
	streamer := newCampaignStreamer(s, e)
	sum, err := campaign.Run(ctx, e.Spec, campaign.Options{
		Workers:         workers,
		DiscardOutcomes: discard,
		Log:             s.cfg.Log.With("campaign_id", e.ID),
		Campaign:        e.ID,
		Forensic: &campaign.ForensicOptions{
			Sink:              func(fc forensic.Capture) { _, _, _ = s.cfg.Forensic.Put(fc) },
			LatencyOutlierPct: s.cfg.ForensicLatencyPct,
		},
		OnOutcome: streamer.onOutcome,
	})
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case errors.Is(err, context.Canceled):
		e.Status = statusCancelled
		e.Err = err.Error()
	case err != nil:
		e.Status = statusFailed
		e.Err = err.Error()
	default:
		e.Status = statusDone
		e.Done = e.Jobs
		e.Summary = sum
	}
	e.addEvent(lifecycleEvent(now, e.Status, e.Err))
	streamer.finish()
	cspan.SetAttr("status", e.Status)
	attrs := []any{
		"id", e.ID, "status", e.Status, "done", e.Done, "jobs", e.Jobs,
		"elapsed_seconds", time.Since(e.CreatedAt).Seconds(),
	}
	if e.Summary != nil {
		attrs = append(attrs, "runs_per_sec", e.Summary.RunsPerSec)
	}
	if e.Err != "" {
		attrs = append(attrs, "error", e.Err)
	}
	s.cfg.Log.Info("campaign finished", attrs...)
}

// StatusResponse reports campaign progress and, once done, the summary.
// RunsPerSec and ETASeconds are present while the campaign is running
// (derived from the engine's own Stats); once done, the summary carries
// the final throughput.
type StatusResponse struct {
	ID             string            `json:"id"`
	TraceID        string            `json:"trace_id,omitempty"`
	Status         string            `json:"status"`
	Jobs           int               `json:"jobs"`
	Done           int               `json:"done"`
	CreatedAt      time.Time         `json:"created_at"`
	ElapsedSeconds float64           `json:"elapsed_seconds"`
	RunsPerSec     float64           `json:"runs_per_sec,omitempty"`
	ETASeconds     float64           `json:"eta_seconds,omitempty"`
	Error          string            `json:"error,omitempty"`
	Summary        *campaign.Summary `json:"summary,omitempty"`
}

func (s *Server) statusLocked(e *entry) StatusResponse {
	resp := StatusResponse{
		ID:        e.ID,
		TraceID:   e.TraceID,
		Status:    e.Status,
		Jobs:      e.Jobs,
		Done:      e.Done,
		CreatedAt: e.CreatedAt,
		Error:     e.Err,
		Summary:   e.Summary,
	}
	if e.Summary != nil {
		resp.ElapsedSeconds = e.Summary.ElapsedSeconds
	} else {
		resp.ElapsedSeconds = time.Since(e.CreatedAt).Seconds()
	}
	if !e.terminal() {
		resp.RunsPerSec = e.RunsPerSec
		resp.ETASeconds = e.ETASeconds
	}
	return resp
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	e := s.campaigns[id]
	var resp StatusResponse
	if e != nil {
		resp = s.statusLocked(e)
	}
	s.mu.Unlock()
	if e == nil {
		obs.WriteError(w, r, http.StatusNotFound, fmt.Errorf("no campaign %q", id))
		return
	}
	obs.WriteJSON(w, http.StatusOK, resp)
}

// EventsResponse is the campaign audit log.
type EventsResponse struct {
	ID      string          `json:"id"`
	TraceID string          `json:"trace_id,omitempty"`
	Status  string          `json:"status"`
	Events  []CampaignEvent `json:"events"`
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	e := s.campaigns[id]
	var resp EventsResponse
	if e != nil {
		resp = EventsResponse{ID: e.ID, TraceID: e.TraceID, Status: e.Status,
			Events: append([]CampaignEvent(nil), e.Events...)}
	}
	s.mu.Unlock()
	if e == nil {
		obs.WriteError(w, r, http.StatusNotFound, fmt.Errorf("no campaign %q", id))
		return
	}
	obs.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	e := s.campaigns[id]
	var cancel context.CancelFunc
	if e != nil && !e.terminal() {
		cancel = e.cancel
	}
	s.mu.Unlock()
	if e == nil {
		obs.WriteError(w, r, http.StatusNotFound, fmt.Errorf("no campaign %q", id))
		return
	}
	if cancel != nil {
		cancel()
	}
	obs.WriteJSON(w, http.StatusAccepted, map[string]string{"id": id, "status": "cancelling"})
}
