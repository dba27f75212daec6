package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"safesense/internal/campaign"
)

// Checkpoint log: one JSON object per line, appended as campaigns are
// submitted and leases complete. The log is a pure function of campaign
// progress — no timestamps — so replaying it reconstructs exactly the
// lease-table state the coordinator had, and a coordinator restart
// resumes a sweep without recomputing finished shards. Records:
//
//	{"kind":"campaign","campaign":{"id":...,"spec":{...},"jobs":N,"lease_jobs":K,"trace_id":...}}
//	{"kind":"lease","lease":{"campaign":...,"shard":i,"start":a,"end":b,"worker":...,"partial":{...}}}

// Checkpoint record kinds.
const (
	recordCampaign = "campaign"
	recordLease    = "lease"
)

// CampaignRecord checkpoints one submission.
type CampaignRecord struct {
	ID        string        `json:"id"`
	Spec      campaign.Spec `json:"spec"`
	Jobs      int           `json:"jobs"`
	LeaseJobs int           `json:"lease_jobs"`
	TraceID   string        `json:"trace_id,omitempty"`
}

// LeaseRecord checkpoints one completed lease.
type LeaseRecord struct {
	Campaign string           `json:"campaign"`
	Shard    int              `json:"shard"`
	Start    int              `json:"start"`
	End      int              `json:"end"`
	Worker   string           `json:"worker,omitempty"`
	Partial  campaign.Partial `json:"partial"`
}

// checkpointRecord is the tagged union on the wire.
type checkpointRecord struct {
	Kind     string          `json:"kind"`
	Campaign *CampaignRecord `json:"campaign,omitempty"`
	Lease    *LeaseRecord    `json:"lease,omitempty"`
}

// checkpointLocked appends one record to the checkpoint log, when one
// is attached. A write failure disables further checkpointing (and is
// logged loudly) rather than failing the campaign: the sweep's
// correctness never depends on the log, only its restartability.
// Callers hold c.mu.
func (c *Coordinator) checkpointLocked(rec checkpointRecord) {
	if c.checkpoint == nil {
		return
	}
	line, err := json.Marshal(rec)
	if err == nil {
		line = append(line, '\n')
		_, err = c.checkpoint.Write(line)
	}
	if err != nil {
		c.cfg.Log.Error("dist checkpoint write failed; checkpointing disabled", "error", err.Error())
		c.checkpoint = nil
	}
}

// maxCheckpointLine bounds one checkpoint record (a lease partial for
// MaxLeaseJobs jobs stays well under this).
const maxCheckpointLine = 64 << 20

// Restore replays a checkpoint log into the coordinator, rebuilding
// campaigns and their completed shards. Open shards (leased but never
// completed before the previous coordinator died) simply return to the
// pool. Call before AttachCheckpoint and before serving workers.
func (c *Coordinator) Restore(r io.Reader) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxCheckpointLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec checkpointRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("dist: checkpoint line %d: %w", lineNo, err)
		}
		switch rec.Kind {
		case recordCampaign:
			if err := c.restoreCampaignLocked(rec.Campaign); err != nil {
				return fmt.Errorf("dist: checkpoint line %d: %w", lineNo, err)
			}
		case recordLease:
			if err := c.restoreLeaseLocked(rec.Lease); err != nil {
				return fmt.Errorf("dist: checkpoint line %d: %w", lineNo, err)
			}
		default:
			return fmt.Errorf("dist: checkpoint line %d: unknown record kind %q", lineNo, rec.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("dist: reading checkpoint: %w", err)
	}
	return nil
}

func (c *Coordinator) restoreCampaignLocked(rec *CampaignRecord) error {
	if rec == nil {
		return fmt.Errorf("campaign record missing body")
	}
	if c.campaigns[rec.ID] != nil {
		return fmt.Errorf("duplicate campaign %q", rec.ID)
	}
	jobs, err := rec.Spec.NumJobs()
	if err != nil {
		return err
	}
	if jobs != rec.Jobs {
		return fmt.Errorf("campaign %q records %d jobs but spec expands to %d", rec.ID, rec.Jobs, jobs)
	}
	if rec.LeaseJobs < 1 || rec.LeaseJobs > MaxLeaseJobs {
		return fmt.Errorf("campaign %q lease_jobs %d outside [1, %d]", rec.ID, rec.LeaseJobs, MaxLeaseJobs)
	}
	d := &dcampaign{
		id:        rec.ID,
		spec:      rec.Spec,
		traceID:   rec.TraceID,
		jobs:      jobs,
		leaseJobs: rec.LeaseJobs,
		shards:    makeShards(jobs, rec.LeaseJobs),
		cadence:   campaign.NewCadence(jobs),
		workers:   make(map[string]*workerProgress),
		createdAt: c.cfg.Clock(),
		status:    StatusRunning,
	}
	c.campaigns[d.id] = d
	c.order = append(c.order, d.id)
	// Keep minted IDs ahead of every restored one ("dNNNNNN").
	var n int
	if _, err := fmt.Sscanf(rec.ID, "d%06d", &n); err == nil && n > c.nextID {
		c.nextID = n
	}
	metricCampaignsActive.With().Add(1)
	if jobs == 0 {
		c.closeCampaignLocked(d)
	}
	return nil
}

func (c *Coordinator) restoreLeaseLocked(rec *LeaseRecord) error {
	if rec == nil {
		return fmt.Errorf("lease record missing body")
	}
	d := c.campaigns[rec.Campaign]
	if d == nil {
		return fmt.Errorf("lease for unknown campaign %q", rec.Campaign)
	}
	if rec.Shard < 0 || rec.Shard >= len(d.shards) {
		return fmt.Errorf("campaign %q has no shard %d", rec.Campaign, rec.Shard)
	}
	sh := d.shards[rec.Shard]
	if sh.start != rec.Start || sh.end != rec.End {
		return fmt.Errorf("campaign %q shard %d spans [%d,%d), record claims [%d,%d)",
			rec.Campaign, rec.Shard, sh.start, sh.end, rec.Start, rec.End)
	}
	if sh.completed {
		return nil // replay of a duplicate completion — same deterministic data
	}
	if got, want := rec.Partial.Jobs, sh.end-sh.start; got != want {
		return fmt.Errorf("campaign %q shard %d partial covers %d jobs, shard spans %d",
			rec.Campaign, rec.Shard, got, want)
	}
	if err := rec.Partial.Validate(); err != nil {
		return err
	}
	if err := rec.Partial.SampleRange(sh.start, sh.end); err != nil {
		return err
	}
	sh.completed = true
	sh.partial = rec.Partial
	d.doneShards++
	d.doneJobs += rec.Partial.Jobs
	if rec.Worker != "" {
		wp := c.touchWorkerLocked(d, rec.Worker, c.cfg.Clock())
		wp.jobsDone += rec.Partial.Jobs
		wp.leasesDone++
	}
	if d.doneShards == len(d.shards) {
		c.closeCampaignLocked(d)
	}
	return nil
}
