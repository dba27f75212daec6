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

	// The hub carries the update: the latest partial frame is the live
	// aggregate over the in-flight jobs.
	var lastPartial []byte
	for _, ev := range hub.Replay(sub.ID, 0) {
		if ev.Type == campaign.StreamPartial {
			lastPartial = ev.Data
		}
	}
	if lastPartial == nil {
		t.Fatal("no partial event published")
	}
	var agg campaign.Aggregate
	if err := json.Unmarshal(lastPartial, &agg); err != nil {
		t.Fatalf("partial event not an Aggregate: %v", err)
	}
	if agg.Jobs != 2 {
		t.Fatalf("live aggregate covers %d jobs, want 2", agg.Jobs)
	}
	if want, _ := json.Marshal(preq.Partial.Finalize()); !bytes.Equal(lastPartial, want) {
		t.Fatalf("live aggregate differs from the snapshot's\n got: %s\nwant: %s", lastPartial, want)
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

// checkPartialFrames asserts the O(jobs) live-view contract on one
// campaign's retained events: at most maxFrames partial frames, each
// an aggregate under 1 KiB, job counts that never decrease, and a last
// frame byte-identical to the done frame's aggregate, which must equal
// want. It returns the partial frames' total bytes.
func checkPartialFrames(t *testing.T, events []*stream.Event, maxFrames int, want []byte) int {
	t.Helper()
	var (
		frames, total, jobs int
		last, done          []byte
	)
	for _, ev := range events {
		switch ev.Type {
		case campaign.StreamPartial:
			frames++
			total += len(ev.Data)
			if len(ev.Data) >= 1024 {
				t.Fatalf("partial frame %d is %d bytes, want under 1 KiB", frames, len(ev.Data))
			}
			var agg campaign.Aggregate
			if err := json.Unmarshal(ev.Data, &agg); err != nil {
				t.Fatalf("partial frame %d: %v", frames, err)
			}
			if agg.Jobs < jobs {
				t.Fatalf("partial frame %d covers %d jobs after %d", frames, agg.Jobs, jobs)
			}
			jobs, last = agg.Jobs, ev.Data
		case campaign.StreamDone:
			var env struct {
				Aggregate json.RawMessage `json:"aggregate"`
			}
			if err := json.Unmarshal(ev.Data, &env); err != nil {
				t.Fatalf("done frame: %v", err)
			}
			done = env.Aggregate
		}
	}
	if frames == 0 || frames > maxFrames {
		t.Fatalf("%d partial frames, want 1 to %d", frames, maxFrames)
	}
	if !bytes.Equal(done, want) {
		t.Fatalf("done aggregate diverges from oracle\n got: %s\nwant: %s", done, want)
	}
	if !bytes.Equal(last, done) {
		t.Fatalf("last partial frame differs from the done aggregate\n got: %s\nwant: %s", last, done)
	}
	return total
}

// TestCoordinatorStreamBounded: a 4096-job campaign driven through
// Acquire, Progress and Complete — one lease lapsing mid-shard, so its
// re-grant drops the live view and the in-flight count dips — streams
// its live view in O(jobs): at most 33 partial frames, each under 1 KiB,
// never covering fewer jobs than the one before, and the last equal
// byte for byte to the done frame's oracle aggregate.
func TestCoordinatorStreamBounded(t *testing.T) {
	clock := newFakeClock()
	hub := stream.NewHub(4096)
	c := NewCoordinator(Config{LeaseJobs: 16, LeaseTTL: time.Minute, Clock: clock.Now, Streams: hub})
	spec := testSpec("stream-bounded")
	spec.Attacks = []string{campaign.AttackDoS, campaign.AttackDelay}
	spec.Replicates = 1024 // 2 attacks x 2 onsets x 1024 seeds = 4096 jobs
	sub, err := c.Submit(SubmitRequest{Spec: spec}, "")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	outcomes, err := campaign.RunJobs(context.Background(), jobs, campaign.Options{Workers: 2})
	if err != nil {
		t.Fatalf("RunJobs: %v", err)
	}

	lapsed := false
	for {
		lease, ok := c.Acquire("w1")
		if !ok {
			break
		}
		shard := outcomes[lease.Start:lease.End]
		err := c.Progress(ProgressRequest{LeaseID: lease.LeaseID, WorkerID: "w1",
			Partial: campaign.PartialOfOutcomes(shard[:len(shard)/2])})
		if err != nil {
			t.Fatalf("Progress: %v", err)
		}
		if !lapsed && lease.Shard == sub.Leases/2 {
			lapsed = true
			clock.Advance(2 * time.Minute)
			continue
		}
		if _, err := c.Complete(CompleteRequest{LeaseID: lease.LeaseID, WorkerID: "w1",
			Partial: campaign.PartialOfOutcomes(shard)}); err != nil {
			t.Fatalf("Complete: %v", err)
		}
	}
	if st, _ := c.CampaignStatus(sub.ID); st.Status != StatusDone {
		t.Fatalf("campaign %s, want done", st.Status)
	}
	want, err := json.Marshal(campaign.AggregateOutcomes(outcomes))
	if err != nil {
		t.Fatal(err)
	}
	total := checkPartialFrames(t, hub.Replay(sub.ID, 0), 33, want)
	t.Logf("%d jobs over %d leases: %d partial bytes", sub.Jobs, sub.Leases, total)
}
