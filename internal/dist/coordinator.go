package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"time"

	"safesense/internal/campaign"
	"safesense/internal/obs"
	"safesense/internal/obs/forensic"
	"safesense/internal/obs/stream"
	obstrace "safesense/internal/obs/trace"
)

// wallClock is the package's injected time source (the determinism
// analyzer's approved seam). The coordinator reads time only through
// Config.Clock — and only to decide lease expiry and report elapsed
// wall time, never to order lease grants.
var wallClock = time.Now

// Config tunes the coordinator.
type Config struct {
	// LeaseJobs is the default shard size in jobs (zero means 256).
	LeaseJobs int
	// LeaseTTL is how long a granted lease lives without a progress post
	// from its holder (zero means 60s).
	LeaseTTL time.Duration
	// MaxJobs rejects specs that expand beyond this many runs (zero
	// means 10 million — distributed sweeps are the big-grid path).
	MaxJobs int
	// MaxCampaigns bounds the in-memory distributed-campaign store
	// (zero means 16). Submissions evict the oldest finished campaign
	// when full and are rejected when every stored campaign still runs.
	MaxCampaigns int
	// Clock is the injected time source (nil means the wall clock).
	Clock func() time.Time
	// Log receives lease-lifecycle records (nil discards).
	Log *slog.Logger
	// Traces is the span store campaign trace roots are minted from
	// (nil means trace.Default()). Worker span batches shipped with lease
	// completions are imported here, stitching the cross-node trace tree.
	Traces *obstrace.Store
	// Forensic is the store worker-shipped anomaly captures merge into
	// (nil discards captures). Merging is idempotent by content hash, so
	// re-leased shards and resubmitted sweeps cannot double-store.
	Forensic *forensic.Store
	// Streams is the broadcast hub live campaign events are published
	// to, one topic per campaign ID (nil disables streaming; every
	// publish is non-blocking, so a slow or absent subscriber never
	// stalls lease traffic).
	Streams *stream.Hub
}

func (c Config) withDefaults() Config {
	if c.LeaseJobs == 0 {
		c.LeaseJobs = 256
	}
	if c.LeaseTTL == 0 {
		c.LeaseTTL = 60 * time.Second
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = 10_000_000
	}
	if c.MaxCampaigns == 0 {
		c.MaxCampaigns = 16
	}
	if c.Clock == nil {
		c.Clock = wallClock
	}
	if c.Log == nil {
		c.Log = slog.New(obs.DiscardHandler{})
	}
	if c.Traces == nil {
		c.Traces = obstrace.Default()
	}
	return c
}

// Campaign lifecycle states.
const (
	StatusRunning = "running"
	StatusDone    = "done"
)

// shard is one contiguous job-index range of a campaign's grid and the
// unit of leasing.
type shard struct {
	start, end int // [start, end)

	completed bool

	// holder state; meaningful only while !completed.
	worker  string
	leaseID string
	expires time.Time
	grants  int // times granted (re-grants after expiry increment this)

	// partial is the shard's share of the campaign view: the holder's
	// latest progress snapshot while the lease is held, the completed
	// partial once it completes. The summary is built only once every
	// shard holds a completed partial, so a lost or duplicated progress
	// post can never perturb byte-identity with the single-node fold.
	partial campaign.Partial
}

// workerProgress tracks one worker's contribution to a campaign.
type workerProgress struct {
	jobsDone   int
	leasesDone int
	firstSeen  time.Time
	lastSeen   time.Time
}

// dcampaign is one stored distributed campaign.
type dcampaign struct {
	id        string
	spec      campaign.Spec
	traceID   string
	span      *obstrace.Span // root span, ended when the campaign closes
	jobs      int
	leaseJobs int
	shards    []*shard

	doneShards int
	doneJobs   int
	cadence    campaign.Cadence // paces the "partial" frames
	workers    map[string]*workerProgress
	events     []campaign.Incident
	captures   int // forensic captures newly stored for this campaign

	createdAt time.Time
	status    string
	summary   *campaign.Summary
}

// leaseRef resolves a lease token to its shard, even after expiry —
// late completions carry deterministic data and stay acceptable while
// the shard is open.
type leaseRef struct {
	campaign *dcampaign
	shard    int
}

// Coordinator owns the distributed-campaign store and lease table. All
// methods are safe for concurrent use.
type Coordinator struct {
	cfg Config

	mu        sync.Mutex
	campaigns map[string]*dcampaign
	order     []string // submission order, for lease priority and eviction
	leases    map[string]*leaseRef
	nextID    int
	nextLease int

	checkpoint io.Writer
}

// NewCoordinator builds a coordinator.
func NewCoordinator(cfg Config) *Coordinator {
	return &Coordinator{
		cfg:       cfg.withDefaults(),
		campaigns: make(map[string]*dcampaign),
		leases:    make(map[string]*leaseRef),
	}
}

// AttachCheckpoint directs the JSONL checkpoint log to w (typically an
// O_APPEND file). Call after Restore so replayed records are not
// re-written. Passing nil disables checkpointing.
func (c *Coordinator) AttachCheckpoint(w io.Writer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checkpoint = w
}

// Submit registers a campaign for distributed execution, splitting its
// grid into ceil(jobs/leaseJobs) contiguous shards. traceID labels the
// campaign's trace root ("" mints a fresh ID).
func (c *Coordinator) Submit(req SubmitRequest, traceID string) (SubmitResponse, error) {
	jobs, err := req.Spec.NumJobs()
	if err != nil {
		return SubmitResponse{}, err
	}
	if jobs > c.cfg.MaxJobs {
		return SubmitResponse{}, fmt.Errorf("dist: campaign expands to %d jobs, coordinator cap is %d", jobs, c.cfg.MaxJobs)
	}
	leaseJobs := req.LeaseJobs
	if leaseJobs <= 0 {
		leaseJobs = c.cfg.LeaseJobs
	}
	if leaseJobs > MaxLeaseJobs {
		leaseJobs = MaxLeaseJobs
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.evictLocked() {
		return SubmitResponse{}, fmt.Errorf("dist: campaign store full (%d running)", c.cfg.MaxCampaigns)
	}
	c.nextID++
	_, span := c.cfg.Traces.Root(context.Background(), "dist.campaign", traceID)
	d := &dcampaign{
		id:        fmt.Sprintf("d%06d", c.nextID),
		spec:      req.Spec,
		traceID:   span.TraceID(),
		span:      span,
		jobs:      jobs,
		leaseJobs: leaseJobs,
		shards:    makeShards(jobs, leaseJobs),
		cadence:   campaign.NewCadence(jobs),
		workers:   make(map[string]*workerProgress),
		createdAt: c.cfg.Clock(),
		status:    StatusRunning,
	}
	span.SetAttr("campaign_id", d.id)
	span.SetAttrInt("jobs", int64(jobs))
	span.SetAttrInt("leases", int64(len(d.shards)))
	c.campaigns[d.id] = d
	c.order = append(c.order, d.id)
	c.checkpointLocked(checkpointRecord{Kind: recordCampaign, Campaign: &CampaignRecord{
		ID: d.id, Spec: d.spec, Jobs: d.jobs, LeaseJobs: d.leaseJobs, TraceID: d.traceID,
	}})
	metricCampaignsActive.With().Add(1)
	c.cfg.Log.Info("dist campaign submitted",
		"id", d.id, "jobs", jobs, "leases", len(d.shards), "lease_jobs", leaseJobs)
	c.publishProgressLocked(d)
	if jobs == 0 {
		c.closeCampaignLocked(d)
	}
	return SubmitResponse{ID: d.id, Jobs: jobs, Leases: len(d.shards), URL: "/v1/dist/campaigns/" + d.id}, nil
}

// makeShards partitions [0, jobs) into contiguous leaseJobs-sized ranges.
func makeShards(jobs, leaseJobs int) []*shard {
	var out []*shard
	for start := 0; start < jobs; start += leaseJobs {
		end := start + leaseJobs
		if end > jobs {
			end = jobs
		}
		out = append(out, &shard{start: start, end: end})
	}
	return out
}

// evictLocked makes room for one more campaign. Callers hold c.mu.
func (c *Coordinator) evictLocked() bool {
	if len(c.campaigns) < c.cfg.MaxCampaigns {
		return true
	}
	for i, id := range c.order {
		if d := c.campaigns[id]; d != nil && d.status != StatusRunning {
			c.dropLeasesLocked(d)
			delete(c.campaigns, id)
			c.order = append(c.order[:i], c.order[i+1:]...)
			return true
		}
	}
	return false
}

// dropLeasesLocked removes a campaign's tokens from the lease table.
func (c *Coordinator) dropLeasesLocked(d *dcampaign) {
	for id, ref := range c.leases {
		if ref.campaign == d {
			delete(c.leases, id)
		}
	}
}

// Acquire grants the next open lease to worker. Selection is
// deterministic in the campaign/shard structure — oldest campaign
// first, lowest shard index first — with the clock consulted only to
// decide whether a held lease has expired. ok is false when no work is
// available (all shards completed or held by live leases).
func (c *Coordinator) Acquire(workerID string) (AcquireResponse, bool) {
	now := c.cfg.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.order {
		d := c.campaigns[id]
		if d == nil || d.status != StatusRunning {
			continue
		}
		for i, sh := range d.shards {
			if sh.completed {
				continue
			}
			if sh.worker != "" && now.Before(sh.expires) {
				continue // held and live
			}
			if sh.worker != "" {
				// Expired: reclaim before re-granting. The dead holder's
				// live view is dropped with the lease — the replacement
				// worker re-reports from zero.
				metricLeasesExpired.With().Inc()
				c.cfg.Log.Warn("dist lease expired",
					"campaign", d.id, "shard", i, "worker", sh.worker, "lease", sh.leaseID)
				c.publishLeaseLocked(d, i, sh, leaseExpired)
				sh.partial = campaign.Partial{}
			}
			c.nextLease++
			sh.worker = workerID
			sh.leaseID = fmt.Sprintf("%s.%d.%d", d.id, i, c.nextLease)
			sh.expires = now.Add(c.cfg.LeaseTTL)
			sh.grants++
			c.leases[sh.leaseID] = &leaseRef{campaign: d, shard: i}
			c.touchWorkerLocked(d, workerID, now)
			metricLeasesGranted.With().Inc()
			c.cfg.Log.Info("dist lease granted",
				"campaign", d.id, "shard", i, "worker", workerID,
				"start", sh.start, "end", sh.end, "grant", sh.grants)
			c.publishLeaseLocked(d, i, sh, leaseGranted)
			return AcquireResponse{
				LeaseID:    sh.leaseID,
				Campaign:   d.id,
				Shard:      i,
				Start:      sh.start,
				End:        sh.end,
				Spec:       d.spec,
				TraceID:    d.traceID,
				TTLSeconds: c.cfg.LeaseTTL.Seconds(),
			}, true
		}
	}
	return AcquireResponse{}, false
}

// errLeaseLost marks a progress post for a lease its sender no longer
// holds: the token is unknown, the shard completed, or the lease was
// granted to another worker. The HTTP layer answers it with 410.
var errLeaseLost = errors.New("dist: lease lost")

// Progress records a heartbeat from the shard's holder: the lease is
// extended by LeaseTTL, and a snapshot covering more jobs than the live
// view replaces it. The live view feeds only Fleet and the event stream
// — Complete replaces it before the summary is built — so a lost,
// duplicated or late post cannot touch the final aggregate; an older
// snapshot still extends the lease but leaves the live view alone. A
// lost lease is errLeaseLost; a snapshot that does not fit the shard is
// any other error.
func (c *Coordinator) Progress(req ProgressRequest) error {
	now := c.cfg.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	ref := c.leases[req.LeaseID]
	if ref == nil {
		return fmt.Errorf("%w: unknown lease %q", errLeaseLost, req.LeaseID)
	}
	d := ref.campaign
	sh := d.shards[ref.shard]
	if sh.completed {
		return fmt.Errorf("%w: lease %q already completed", errLeaseLost, req.LeaseID)
	}
	if sh.leaseID != req.LeaseID || sh.worker != req.WorkerID {
		return fmt.Errorf("%w: lease %q was reassigned", errLeaseLost, req.LeaseID)
	}
	if span := sh.end - sh.start; req.Partial.Jobs > span {
		return fmt.Errorf("dist: progress covers %d jobs, lease %q spans %d", req.Partial.Jobs, req.LeaseID, span)
	}
	if err := req.Partial.SampleRange(sh.start, sh.end); err != nil {
		return err
	}
	sh.expires = now.Add(c.cfg.LeaseTTL)
	c.touchWorkerLocked(d, req.WorkerID, now)
	c.appendEventsLocked(d, req.Events)
	if req.Partial.Jobs > sh.partial.Jobs {
		sh.partial = req.Partial
		c.publishProgressLocked(d)
		metricProgressUpdates.With().Inc()
	}
	return nil
}

// Complete records a finished shard. The partial must cover exactly the
// lease's job range; completion is idempotent (a duplicate for a closed
// shard is acknowledged and discarded) and holder-agnostic (a stale
// holder's deterministic result is as good as the current holder's).
// The partial is kept on its shard, not merged into a campaign-wide
// one, so a completion costs O(shard) work.
func (c *Coordinator) Complete(req CompleteRequest) (CompleteResponse, error) {
	now := c.cfg.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	ref := c.leases[req.LeaseID]
	if ref == nil {
		return CompleteResponse{}, fmt.Errorf("dist: unknown lease %q", req.LeaseID)
	}
	d := ref.campaign
	sh := d.shards[ref.shard]
	if sh.completed {
		return CompleteResponse{Duplicate: true, CampaignDone: d.status == StatusDone}, nil
	}
	if got, want := req.Partial.Jobs, sh.end-sh.start; got != want {
		return CompleteResponse{}, fmt.Errorf("dist: partial covers %d jobs, lease %q spans %d", got, req.LeaseID, want)
	}
	if err := req.Partial.SampleRange(sh.start, sh.end); err != nil {
		return CompleteResponse{}, err
	}

	sh.completed = true
	sh.worker = req.WorkerID // completed-by, for the lease event below
	sh.partial = req.Partial
	d.doneShards++
	d.doneJobs += req.Partial.Jobs
	wp := c.touchWorkerLocked(d, req.WorkerID, now)
	wp.jobsDone += req.Partial.Jobs
	wp.leasesDone++
	c.appendEventsLocked(d, req.Events)
	c.mergeCapturesLocked(d, req.Captures)
	if len(req.Spans) > 0 {
		c.cfg.Traces.Import(req.Spans)
	}
	c.publishLeaseLocked(d, ref.shard, sh, leaseCompleted)
	sh.worker = ""
	c.publishProgressLocked(d)
	c.checkpointLocked(checkpointRecord{Kind: recordLease, Lease: &LeaseRecord{
		Campaign: d.id, Shard: ref.shard, Start: sh.start, End: sh.end,
		Worker: req.WorkerID, Partial: req.Partial,
	}})
	metricLeasesCompleted.With().Inc()
	metricLeaseJobsDone.With().Add(float64(req.Partial.Jobs))
	c.cfg.Log.Info("dist lease completed",
		"campaign", d.id, "shard", ref.shard, "worker", req.WorkerID,
		"jobs", req.Partial.Jobs, "done_shards", d.doneShards, "shards", len(d.shards))
	done := d.doneShards == len(d.shards)
	if done {
		c.closeCampaignLocked(d)
	}
	return CompleteResponse{CampaignDone: done}, nil
}

// closeCampaignLocked finalizes a fully-completed campaign: the shards'
// completed partials, concatenated in grid order, become the summary
// aggregate, and are then dropped. Callers hold c.mu.
func (c *Coordinator) closeCampaignLocked(d *dcampaign) {
	d.status = StatusDone
	workers := 0
	for _, wp := range d.workers {
		if wp.leasesDone > 0 {
			workers++
		}
	}
	elapsed := c.cfg.Clock().Sub(d.createdAt)
	sum := &campaign.Summary{
		Name:           d.spec.Name,
		Spec:           d.spec,
		Workers:        workers,
		Aggregate:      d.partial().Finalize(),
		ElapsedSeconds: elapsed.Seconds(),
	}
	if elapsed > 0 {
		sum.RunsPerSec = float64(d.jobs) / elapsed.Seconds()
	}
	d.summary = sum
	for _, sh := range d.shards {
		sh.partial = campaign.Partial{}
	}
	if d.span != nil {
		d.span.SetAttrInt("done_jobs", int64(d.doneJobs))
		d.span.End()
	}
	metricCampaignsActive.With().Add(-1)
	c.cfg.Log.Info("dist campaign done",
		"id", d.id, "jobs", d.jobs, "workers", workers, "elapsed_seconds", elapsed.Seconds())
	f := d.doneFrame()
	campaign.PublishClose(c.cfg.Streams, &f)
}

// appendEventsLocked forwards a batch of worker flight events into the
// campaign's bounded event log and onto the stream. Callers hold c.mu.
func (c *Coordinator) appendEventsLocked(d *dcampaign, evs []campaign.Incident) {
	for _, ev := range evs {
		if len(d.events) < campaign.MaxEventLog {
			d.events = append(d.events, ev)
		}
		c.cfg.Streams.PublishJSON(d.id, campaign.StreamFlight, ev)
	}
}

// mergeCapturesLocked persists a completion's forensic captures,
// relabeled with the coordinator's campaign ID. The store dedups by
// content hash — and the hash excludes campaign metadata — so a shard
// completed twice (re-lease, retry) or the same sweep resubmitted under
// a new ID stores each anomaly exactly once. Callers hold c.mu.
func (c *Coordinator) mergeCapturesLocked(d *dcampaign, captures []forensic.Capture) {
	if c.cfg.Forensic == nil {
		return
	}
	for _, fc := range captures {
		fc.Campaign = d.id
		hash, stored, err := c.cfg.Forensic.Put(fc)
		if err != nil {
			c.cfg.Log.Warn("dist capture rejected", "campaign", d.id, "err", err)
			continue
		}
		if stored {
			d.captures++
			c.cfg.Log.Info("dist capture stored",
				"campaign", d.id, "job", fc.JobIndex, "hash", hash, "kinds", fc.Kinds)
		}
	}
}

// touchWorkerLocked bumps a worker's last-seen time. Callers hold c.mu.
func (c *Coordinator) touchWorkerLocked(d *dcampaign, workerID string, now time.Time) *workerProgress {
	wp := d.workers[workerID]
	if wp == nil {
		wp = &workerProgress{firstSeen: now}
		d.workers[workerID] = wp
	}
	wp.lastSeen = now
	return wp
}

// WorkerStatus is one worker's per-campaign progress row.
type WorkerStatus struct {
	ID         string    `json:"id"`
	JobsDone   int       `json:"jobs_done"`
	LeasesDone int       `json:"leases_done"`
	LastSeen   time.Time `json:"last_seen"`
}

// LeaseStatus summarizes one shard of the lease table.
type LeaseStatus struct {
	Shard     int    `json:"shard"`
	Start     int    `json:"start"`
	End       int    `json:"end"`
	Completed bool   `json:"completed"`
	Worker    string `json:"worker,omitempty"`
	Grants    int    `json:"grants"`
}

// Status is a distributed campaign's progress report.
type Status struct {
	ID             string              `json:"id"`
	TraceID        string              `json:"trace_id,omitempty"`
	Status         string              `json:"status"`
	Jobs           int                 `json:"jobs"`
	DoneJobs       int                 `json:"done_jobs"`
	Leases         int                 `json:"leases"`
	DoneLeases     int                 `json:"done_leases"`
	ActiveLeases   int                 `json:"active_leases"`
	Workers        []WorkerStatus      `json:"workers,omitempty"`
	LeaseTable     []LeaseStatus       `json:"lease_table,omitempty"`
	Events         []campaign.Incident `json:"events,omitempty"`
	Captures       int                 `json:"captures,omitempty"`
	ElapsedSeconds float64             `json:"elapsed_seconds"`
	Summary        *campaign.Summary   `json:"summary,omitempty"`
}

// CampaignStatus reports one campaign ("" ok=false when unknown).
func (c *Coordinator) CampaignStatus(id string) (Status, bool) {
	now := c.cfg.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.campaigns[id]
	if d == nil {
		return Status{}, false
	}
	st := Status{
		ID:         d.id,
		TraceID:    d.traceID,
		Status:     d.status,
		Jobs:       d.jobs,
		DoneJobs:   d.doneJobs,
		Leases:     len(d.shards),
		DoneLeases: d.doneShards,
		Events:     append([]campaign.Incident(nil), d.events...),
		Captures:   d.captures,
		Summary:    d.summary,
	}
	if d.summary != nil {
		st.ElapsedSeconds = d.summary.ElapsedSeconds
	} else {
		st.ElapsedSeconds = now.Sub(d.createdAt).Seconds()
	}
	for i, sh := range d.shards {
		row := LeaseStatus{Shard: i, Start: sh.start, End: sh.end, Completed: sh.completed, Grants: sh.grants}
		if !sh.completed && sh.worker != "" && now.Before(sh.expires) {
			row.Worker = sh.worker
			st.ActiveLeases++
		}
		st.LeaseTable = append(st.LeaseTable, row)
	}
	var ids []string
	for id := range d.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, wid := range ids {
		wp := d.workers[wid]
		st.Workers = append(st.Workers, WorkerStatus{
			ID: wid, JobsDone: wp.jobsDone, LeasesDone: wp.leasesDone, LastSeen: wp.lastSeen,
		})
	}
	return st, true
}
