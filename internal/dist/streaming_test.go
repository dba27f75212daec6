package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"safesense/internal/campaign"
	"safesense/internal/obs/stream"
)

// progressOver computes an honest mid-lease snapshot covering the first
// n jobs of the lease's shard.
func progressOver(t *testing.T, lease AcquireResponse, worker string, n int) ProgressRequest {
	t.Helper()
	jobs, err := lease.Spec.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	outcomes, err := campaign.RunJobs(context.Background(), jobs[lease.Start:lease.Start+n], campaign.Options{Workers: 1})
	if err != nil {
		t.Fatalf("RunJobs: %v", err)
	}
	return ProgressRequest{
		LeaseID:  lease.LeaseID,
		WorkerID: worker,
		Partial:  campaign.PartialOfOutcomes(outcomes),
		Events:   OutcomeEvents(outcomes),
	}
}

// TestCoordinatorProgressLiveView: mid-lease progress feeds the live
// fleet view and the stream hub without touching the completed-lease
// merge, and the terminal "done" event embeds an aggregate
// byte-identical to the single-node oracle.
func TestCoordinatorProgressLiveView(t *testing.T) {
	clock := newFakeClock()
	hub := stream.NewHub(0)
	c := NewCoordinator(Config{LeaseJobs: 3, LeaseTTL: time.Minute, Clock: clock.Now, Streams: hub})
	spec := testSpec("progress-live")

	sub, err := c.Submit(SubmitRequest{Spec: spec}, "")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	lease, ok := c.Acquire("w1")
	if !ok {
		t.Fatal("no lease granted")
	}

	preq := progressOver(t, lease, "w1", 2)
	if err := c.Progress(preq); err != nil {
		t.Fatalf("Progress: %v", err)
	}

	// The live view counts in-flight jobs; the authoritative merge does not.
	st, _ := c.CampaignStatus(sub.ID)
	if st.DoneJobs != 0 {
		t.Fatalf("progress leaked into done_jobs: %d", st.DoneJobs)
	}
	fl := c.Fleet()
	if len(fl.Campaigns) != 1 || fl.Campaigns[0].LiveJobs != 2 {
		t.Fatalf("fleet campaigns = %+v, want live_jobs 2", fl.Campaigns)
	}
	if len(fl.Workers) != 1 || fl.Workers[0].ID != "w1" ||
		fl.Workers[0].LiveJobs != 2 || fl.Workers[0].ActiveLeases != 1 || !fl.Workers[0].Live {
		t.Fatalf("fleet workers = %+v", fl.Workers)
	}
	if fl.StreamPublished == 0 {
		t.Fatal("fleet reports zero published stream events after progress")
	}

	// The hub carries the update: the latest partial snapshot must be a
	// valid mergeable partial over the in-flight jobs.
	var lastPartial []byte
	for _, ev := range hub.Replay(sub.ID, 0) {
		if ev.Type == campaign.StreamPartial {
			lastPartial = ev.Data
		}
	}
	if lastPartial == nil {
		t.Fatal("no partial event published")
	}
	var p campaign.Partial
	if err := json.Unmarshal(lastPartial, &p); err != nil {
		t.Fatalf("partial event not a Partial: %v", err)
	}
	if p.Jobs != 2 {
		t.Fatalf("live partial covers %d jobs, want 2", p.Jobs)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("live partial invalid: %v", err)
	}

	// Lost-lease and oversized posts are refused; an older snapshot
	// from the holder is accepted as a heartbeat but leaves the live
	// view alone.
	if err := c.Progress(ProgressRequest{LeaseID: "d999999.0.1", WorkerID: "w1"}); !errors.Is(err, errLeaseLost) {
		t.Fatalf("unknown lease progress = %v, want lease lost", err)
	}
	wrongWorker := preq
	wrongWorker.WorkerID = "w2"
	if err := c.Progress(wrongWorker); !errors.Is(err, errLeaseLost) {
		t.Fatalf("non-holder progress = %v, want lease lost", err)
	}
	oversized := preq
	oversized.Partial.Jobs = lease.End - lease.Start + 1
	if err := c.Progress(oversized); err == nil || errors.Is(err, errLeaseLost) {
		t.Fatalf("oversized progress = %v, want an invalid-snapshot error", err)
	}
	older := progressOver(t, lease, "w1", 1)
	if err := c.Progress(older); err != nil {
		t.Fatalf("out-of-order progress: %v", err)
	}
	if fl := c.Fleet(); fl.Campaigns[0].LiveJobs != 2 {
		t.Fatalf("out-of-order progress moved live_jobs to %d, want 2", fl.Campaigns[0].LiveJobs)
	}

	// Complete both shards; the live view collapses into the merge.
	first := runShard(t, lease)
	first.WorkerID = "w1"
	if _, err := c.Complete(first); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	lease2, ok := c.Acquire("w2")
	if !ok {
		t.Fatal("no second lease")
	}
	second := runShard(t, lease2)
	second.WorkerID = "w2"
	done, err := c.Complete(second)
	if err != nil || !done.CampaignDone {
		t.Fatalf("Complete = %+v, %v", done, err)
	}
	if err := c.Progress(preq); !errors.Is(err, errLeaseLost) {
		t.Fatalf("progress after completion = %v, want lease lost", err)
	}

	// The terminal event's embedded aggregate is byte-identical to the
	// single-node fold of the same spec.
	var doneData []byte
	for _, ev := range hub.Replay(sub.ID, 0) {
		if ev.Type == campaign.StreamDone {
			doneData = ev.Data
		}
	}
	if doneData == nil {
		t.Fatal("no done event published")
	}
	var env struct {
		Aggregate json.RawMessage `json:"aggregate"`
	}
	if err := json.Unmarshal(doneData, &env); err != nil {
		t.Fatalf("done event: %v", err)
	}
	if want := oracleAggregate(t, spec); !bytes.Equal(env.Aggregate, want) {
		t.Fatalf("streamed done aggregate diverges from oracle\n got: %s\nwant: %s", env.Aggregate, want)
	}
}

// TestStreamEndpointFinishedCampaign: subscribing to a campaign that
// already finished yields one synthesized terminal frame carrying the
// oracle-identical aggregate, even when the hub never saw the campaign
// (e.g. after a coordinator restart with a cold ring).
func TestStreamEndpointFinishedCampaign(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(Config{LeaseJobs: MaxLeaseJobs, LeaseTTL: time.Minute, Clock: clock.Now, Streams: stream.NewHub(8)})
	spec := testSpec("stream-done")
	sub, err := c.Submit(SubmitRequest{Spec: spec}, "")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	lease, ok := c.Acquire("w1")
	if !ok {
		t.Fatal("no lease granted")
	}
	if _, err := c.Complete(runShard(t, lease)); err != nil {
		t.Fatalf("Complete: %v", err)
	}

	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/dist/campaigns/" + sub.ID + "/stream")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	fr, err := stream.NewDecoder(resp.Body).Next()
	if err != nil {
		t.Fatalf("decoding terminal frame: %v", err)
	}
	if fr.Event != campaign.StreamDone {
		t.Fatalf("terminal frame event = %q, want done", fr.Event)
	}
	var env struct {
		Aggregate json.RawMessage `json:"aggregate"`
	}
	if err := json.Unmarshal(fr.Data, &env); err != nil {
		t.Fatalf("terminal frame data: %v", err)
	}
	if want := oracleAggregate(t, spec); !bytes.Equal(env.Aggregate, want) {
		t.Fatalf("terminal aggregate diverges from oracle\n got: %s\nwant: %s", env.Aggregate, want)
	}

	// Unknown campaigns 404 rather than hang.
	r404, err := http.Get(srv.URL + "/v1/dist/campaigns/d999999/stream")
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign stream status = %d", r404.StatusCode)
	}
}
