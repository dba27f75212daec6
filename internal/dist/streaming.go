package dist

import (
	"sort"
	"time"

	"safesense/internal/campaign"
)

// streamTypeLease is the SSE event type of a lease transition, the
// one frame the dist route adds to the campaign vocabulary
// (campaign.StreamProgress and friends).
const streamTypeLease = "lease"

// Lease transition states carried by "lease" events.
const (
	leaseGranted   = "granted"
	leaseExpired   = "expired"
	leaseCompleted = "completed"
)

// streamLease is the "lease" payload: one shard transition.
type streamLease struct {
	Campaign string `json:"campaign"`
	Shard    int    `json:"shard"`
	Start    int    `json:"start"`
	End      int    `json:"end"`
	Worker   string `json:"worker,omitempty"`
	State    string `json:"state"`
	Grants   int    `json:"grants"`
}

// publishLeaseLocked emits one shard transition. Callers hold c.mu.
func (c *Coordinator) publishLeaseLocked(d *dcampaign, i int, sh *shard, state string) {
	c.cfg.Streams.PublishJSON(d.id, streamTypeLease, streamLease{
		Campaign: d.id, Shard: i, Start: sh.start, End: sh.end,
		Worker: sh.worker, State: state, Grants: sh.grants,
	})
}

// publishProgressLocked emits the campaign's current counters and,
// when the cadence says so, the live aggregate over completed and
// in-flight jobs (the last one goes out with "done", from
// closeCampaignLocked). Callers hold c.mu.
func (c *Coordinator) publishProgressLocked(d *dcampaign) {
	if c.cfg.Streams == nil {
		return
	}
	done := d.doneJobs + liveJobs(d)
	c.cfg.Streams.PublishJSON(d.id, campaign.StreamProgress, campaign.ProgressFrame{
		Campaign: d.id, Status: d.status, Jobs: d.jobs, Done: done,
		Leases: len(d.shards), DoneLeases: d.doneShards,
	})
	if d.cadence.Due(done) {
		c.cfg.Streams.PublishJSON(d.id, campaign.StreamPartial, d.partial().Finalize())
	}
}

// doneFrame is the campaign's terminal "done" payload. Callers hold
// c.mu, after closeCampaignLocked has set the summary.
func (d *dcampaign) doneFrame() campaign.DoneFrame {
	return campaign.DoneFrame{
		Campaign: d.id, Status: d.status, Jobs: d.jobs, Done: d.doneJobs,
		ElapsedSeconds: d.summary.ElapsedSeconds, Aggregate: &d.summary.Aggregate,
	}
}

// terminalFrame looks campaign id up: ok is false when it is unknown,
// and frame is non-nil once it is done.
func (c *Coordinator) terminalFrame(id string) (frame *campaign.DoneFrame, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.campaigns[id]
	if d == nil {
		return nil, false
	}
	if d.summary != nil {
		f := d.doneFrame()
		frame = &f
	}
	return frame, true
}

// liveJobs sums the in-flight jobs reported by current lease holders.
func liveJobs(d *dcampaign) int {
	n := 0
	for _, sh := range d.shards {
		if !sh.completed {
			n += sh.partial.Jobs
		}
	}
	return n
}

// partial is the campaign view over every shard's partial, completed
// or live: the freshest consistent view of the whole campaign, built
// in one in-order pass (shards are disjoint, contiguous and
// index-ordered). Callers hold c.mu.
func (d *dcampaign) partial() campaign.Partial {
	parts := make([]*campaign.Partial, len(d.shards))
	for i, sh := range d.shards {
		parts[i] = &sh.partial
	}
	return campaign.Concat(parts)
}

// FleetWorker is one worker's row in the fleet view, aggregated across
// every stored campaign.
type FleetWorker struct {
	ID           string    `json:"id"`
	JobsDone     int       `json:"jobs_done"`
	LiveJobs     int       `json:"live_jobs"`
	LeasesDone   int       `json:"leases_done"`
	ActiveLeases int       `json:"active_leases"`
	FirstSeen    time.Time `json:"first_seen"`
	LastSeen     time.Time `json:"last_seen"`
	// RunsPerSec is jobs delivered per second of the worker's observed
	// lifetime (zero until the clock has advanced past first contact).
	RunsPerSec float64 `json:"runs_per_sec"`
	// Live reports contact within one lease TTL — a live holder posts
	// progress several times per TTL, and an idle worker polls far faster.
	Live bool `json:"live"`
}

// FleetCampaign summarizes one campaign for the fleet view.
type FleetCampaign struct {
	ID           string `json:"id"`
	Status       string `json:"status"`
	Jobs         int    `json:"jobs"`
	DoneJobs     int    `json:"done_jobs"`
	LiveJobs     int    `json:"live_jobs"`
	Leases       int    `json:"leases"`
	DoneLeases   int    `json:"done_leases"`
	ActiveLeases int    `json:"active_leases"`
}

// FleetStatus is the GET /v1/fleet payload: every worker the
// coordinator has heard from, every stored campaign, and the stream
// hub's health counters.
type FleetStatus struct {
	Workers           []FleetWorker   `json:"workers,omitempty"`
	Campaigns         []FleetCampaign `json:"campaigns,omitempty"`
	StreamSubscribers int             `json:"stream_subscribers"`
	StreamPublished   uint64          `json:"stream_events_published"`
	StreamDropped     uint64          `json:"stream_events_dropped"`
}

// Fleet reports fleet-wide worker liveness and throughput. Workers are
// keyed by ID across campaigns; rows are sorted by ID so the payload is
// deterministic for a given state.
func (c *Coordinator) Fleet() FleetStatus {
	now := c.cfg.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	byID := make(map[string]*FleetWorker)
	var fs FleetStatus
	for _, id := range c.order {
		d := c.campaigns[id]
		if d == nil {
			continue
		}
		fc := FleetCampaign{
			ID: d.id, Status: d.status, Jobs: d.jobs, DoneJobs: d.doneJobs,
			LiveJobs: liveJobs(d), Leases: len(d.shards), DoneLeases: d.doneShards,
		}
		for _, sh := range d.shards {
			if sh.completed || sh.worker == "" || !now.Before(sh.expires) {
				continue
			}
			fc.ActiveLeases++
			if fw := byID[sh.worker]; fw != nil {
				fw.ActiveLeases++
				fw.LiveJobs += sh.partial.Jobs
			} else {
				byID[sh.worker] = &FleetWorker{ID: sh.worker, ActiveLeases: 1, LiveJobs: sh.partial.Jobs}
			}
		}
		fs.Campaigns = append(fs.Campaigns, fc)
		for wid, wp := range d.workers {
			fw := byID[wid]
			if fw == nil {
				fw = &FleetWorker{ID: wid}
				byID[wid] = fw
			}
			fw.JobsDone += wp.jobsDone
			fw.LeasesDone += wp.leasesDone
			if fw.FirstSeen.IsZero() || wp.firstSeen.Before(fw.FirstSeen) {
				fw.FirstSeen = wp.firstSeen
			}
			if wp.lastSeen.After(fw.LastSeen) {
				fw.LastSeen = wp.lastSeen
			}
		}
	}
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fw := byID[id]
		fw.Live = !fw.LastSeen.IsZero() && now.Sub(fw.LastSeen) <= c.cfg.LeaseTTL
		if elapsed := fw.LastSeen.Sub(fw.FirstSeen); elapsed > 0 {
			fw.RunsPerSec = float64(fw.JobsDone+fw.LiveJobs) / elapsed.Seconds()
		}
		fs.Workers = append(fs.Workers, *fw)
	}
	if c.cfg.Streams != nil {
		published, dropped, subs := c.cfg.Streams.Stats()
		fs.StreamSubscribers = subs
		fs.StreamPublished = published
		fs.StreamDropped = dropped
	}
	return fs
}
