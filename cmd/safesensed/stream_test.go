package main

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"testing"

	"safesense/internal/campaign"
	"safesense/internal/obs/stream"
)

// streamSpec is a grid slow enough (signal-level pipeline, the same
// trick TestCampaignCancel uses) that the SSE subscriber reliably
// attaches while the sweep is still running: 16 multi-millisecond jobs
// buy orders of magnitude more margin than the one local GET needs.
func streamSpec() campaign.Spec {
	return campaign.Spec{
		Name:        "stream-grid",
		Steps:       301,
		BaseSeed:    42,
		Replicates:  16,
		SignalLevel: true,
		Onsets:      []int{182},
	}
}

// oracleAggregateBytes is the byte-identity reference: a blocking
// single-process run of the same spec, marshaled standalone.
func oracleAggregateBytes(t *testing.T, spec campaign.Spec) []byte {
	t.Helper()
	sum, err := campaign.Run(context.Background(), spec, campaign.Options{Workers: 4})
	if err != nil {
		t.Fatalf("oracle Run: %v", err)
	}
	b, err := json.Marshal(sum.Aggregate)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCampaignStreamLive subscribes to a running sweep's SSE feed and
// checks the stream contract end to end: monotone progress counters,
// live aggregates over a growing job count, per-frame IDs suitable for
// Last-Event-ID resume, and a terminal "done" event whose embedded
// aggregate is byte-identical to a blocking run of the same spec and to
// the last partial frame.
func TestCampaignStreamLive(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := streamSpec()
	ack := decodeJSON[SubmitResponse](t, postJSON(t, ts.URL+"/v1/campaigns",
		SubmitRequest{Spec: spec, Workers: 2}), http.StatusAccepted)

	resp, err := http.Get(ts.URL + "/v1/campaigns/" + ack.ID + "/stream")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var (
		dec         = stream.NewDecoder(resp.Body)
		lastDone    = -1
		progress    int
		partials    int
		partialJobs int
		lastPartial []byte
		lastID      uint64
		doneFrame   []byte
		frameKinds  = map[string]bool{}
	)
	for doneFrame == nil {
		fr, err := dec.Next()
		if err != nil {
			t.Fatalf("decoding frame after %d progress/%d partial: %v", progress, partials, err)
		}
		frameKinds[fr.Event] = true
		if fr.ID != 0 {
			if fr.ID <= lastID {
				t.Fatalf("frame IDs not increasing: %d after %d", fr.ID, lastID)
			}
			lastID = fr.ID
		}
		switch fr.Event {
		case campaign.StreamProgress:
			var p campaign.ProgressFrame
			if err := json.Unmarshal(fr.Data, &p); err != nil {
				t.Fatalf("progress payload: %v", err)
			}
			if p.Campaign != ack.ID || p.Jobs != ack.Jobs {
				t.Fatalf("progress = %+v, want campaign %s over %d jobs", p, ack.ID, ack.Jobs)
			}
			if p.Done < lastDone {
				t.Fatalf("progress went backwards: %d after %d", p.Done, lastDone)
			}
			lastDone = p.Done
			progress++
		case campaign.StreamPartial:
			var agg campaign.Aggregate
			if err := json.Unmarshal(fr.Data, &agg); err != nil {
				t.Fatalf("partial payload: %v", err)
			}
			if agg.Jobs < max(1, partialJobs) || agg.Jobs > ack.Jobs {
				t.Fatalf("partial covers %d jobs after %d", agg.Jobs, partialJobs)
			}
			partialJobs, lastPartial = agg.Jobs, fr.Data
			partials++
		case campaign.StreamDone:
			doneFrame = fr.Data
		}
	}
	if progress == 0 || partials == 0 {
		t.Fatalf("stream carried %d progress and %d partial frames; frames seen: %v",
			progress, partials, frameKinds)
	}

	var done campaign.DoneFrame
	if err := json.Unmarshal(doneFrame, &done); err != nil {
		t.Fatalf("done payload: %v", err)
	}
	if done.Status != statusDone || done.Done != ack.Jobs || done.Aggregate == nil {
		t.Fatalf("done = %+v", done)
	}
	var env struct {
		Aggregate json.RawMessage `json:"aggregate"`
	}
	if err := json.Unmarshal(doneFrame, &env); err != nil {
		t.Fatal(err)
	}
	if want := oracleAggregateBytes(t, spec); !bytes.Equal(env.Aggregate, want) {
		t.Fatalf("streamed aggregate diverges from blocking oracle\n got: %s\nwant: %s",
			env.Aggregate, want)
	}
	if !bytes.Equal(lastPartial, env.Aggregate) {
		t.Fatalf("last partial frame differs from the done aggregate\n got: %s\nwant: %s",
			lastPartial, env.Aggregate)
	}
}

// TestCampaignStreamBounded runs a 4096-job grid (two leaders x two
// attacks x two onsets x 512 seeds, at 301 steps) on the local route,
// on a hub of the default ring size, and reads its stream back from the
// hub. The frames fit one event budget: 31 progress frames (one per 128
// jobs below the last), 32 partial frames (those plus the closing one),
// one done frame, and one flight frame per incident of the blocking
// run, which stay outside the budget (this grid, on the paper's
// challenge schedule, has none). All are retained, so a replay
// from 0 after done starts at the campaign's first frame. The partial
// frames are aggregates under 1 KiB each and 40 KB in all, over job
// counts that never decrease, the last byte-identical to the done
// frame's aggregate, which must equal the blocking run's.
func TestCampaignStreamBounded(t *testing.T) {
	hub := stream.NewHub(stream.DefaultRingSize)
	_, ts := newTestServer(t, Config{Streams: hub})
	spec := campaign.Spec{
		Name:       "stream-bounded",
		Steps:      301,
		BaseSeed:   1,
		Replicates: 512,
		Attacks:    []string{campaign.AttackDoS, campaign.AttackDelay},
		Leaders:    []string{campaign.LeaderConst, campaign.LeaderPhased},
		Onsets:     []int{175, 182},
	}
	oracle, err := campaign.Run(context.Background(), spec, campaign.Options{Workers: 2})
	if err != nil {
		t.Fatalf("oracle Run: %v", err)
	}
	want, err := json.Marshal(oracle.Aggregate)
	if err != nil {
		t.Fatal(err)
	}
	budget := map[string]int{campaign.StreamProgress: 31, campaign.StreamPartial: 32, campaign.StreamDone: 1}
	for _, o := range oracle.Outcomes {
		if n := len(campaign.Incidents(o)); n > 0 {
			budget[campaign.StreamFlight] += n
		}
	}

	first := hub.LastID() + 1
	ack := decodeJSON[SubmitResponse](t, postJSON(t, ts.URL+"/v1/campaigns",
		SubmitRequest{Spec: spec, Workers: 2, DiscardOutcomes: true}), http.StatusAccepted)
	if st := pollCampaign(t, ts.URL, ack.ID); st.Status != statusDone {
		t.Fatalf("campaign %s: %s", st.Status, st.Error)
	}

	events := hub.Replay(ack.ID, 0)
	if len(events) == 0 || events[0].ID != first {
		t.Fatalf("replay from 0 does not start at the campaign's first frame, event %d", first)
	}
	counts := map[string]int{}
	var (
		total, jobs int
		last, done  []byte
	)
	for _, ev := range events {
		counts[ev.Type]++
		switch ev.Type {
		case campaign.StreamPartial:
			total += len(ev.Data)
			if len(ev.Data) >= 1024 {
				t.Fatalf("partial frame %d is %d bytes, want under 1 KiB", counts[ev.Type], len(ev.Data))
			}
			var agg campaign.Aggregate
			if err := json.Unmarshal(ev.Data, &agg); err != nil {
				t.Fatalf("partial frame %d: %v", counts[ev.Type], err)
			}
			if agg.Jobs < jobs {
				t.Fatalf("partial frame %d covers %d jobs after %d", counts[ev.Type], agg.Jobs, jobs)
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
	if !maps.Equal(counts, budget) || total > 40_000 {
		t.Fatalf("events %v, %d partial bytes; want %v, at most 40 KB", counts, total, budget)
	}
	if !bytes.Equal(done, want) {
		t.Fatalf("done aggregate diverges from blocking oracle\n got: %s\nwant: %s", done, want)
	}
	if !bytes.Equal(last, done) {
		t.Fatalf("last partial frame differs from the done aggregate\n got: %s\nwant: %s", last, done)
	}
	t.Logf("%d jobs: %d events %v, %d partial bytes", ack.Jobs, len(events), counts, total)
}

// TestCampaignStreamFinished: a subscriber arriving after the sweep
// completed gets one synthesized terminal frame (the live events may be
// long evicted from the ring), and unknown campaigns 404 rather than
// hang the connection.
func TestCampaignStreamFinished(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tiny := campaign.Spec{Name: "stream-tiny", Steps: 50, Onsets: []int{10}}
	ack := decodeJSON[SubmitResponse](t, postJSON(t, ts.URL+"/v1/campaigns",
		SubmitRequest{Spec: tiny}), http.StatusAccepted)
	pollCampaign(t, ts.URL, ack.ID)

	resp, err := http.Get(ts.URL + "/v1/campaigns/" + ack.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fr, err := stream.NewDecoder(resp.Body).Next()
	if err != nil {
		t.Fatalf("terminal frame: %v", err)
	}
	if fr.Event != campaign.StreamDone {
		t.Fatalf("terminal frame event = %q, want done", fr.Event)
	}
	var env struct {
		Aggregate json.RawMessage `json:"aggregate"`
	}
	if err := json.Unmarshal(fr.Data, &env); err != nil {
		t.Fatal(err)
	}
	if want := oracleAggregateBytes(t, tiny); !bytes.Equal(env.Aggregate, want) {
		t.Fatalf("terminal aggregate diverges from oracle\n got: %s\nwant: %s", env.Aggregate, want)
	}

	nresp, err := http.Get(ts.URL + "/v1/campaigns/nope/stream")
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign stream status = %d", nresp.StatusCode)
	}
}

// TestDebugTracesLimit: the trace listing is bounded by default and
// honors ?limit=N (keeping the most recent), rejecting junk values.
func TestDebugTracesLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/debug/traces?limit=2")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeJSON[struct {
		Traces []json.RawMessage `json:"traces"`
		Total  int               `json:"total"`
	}](t, resp, http.StatusOK)
	if len(list.Traces) != 2 {
		t.Fatalf("limited listing returned %d traces, want 2", len(list.Traces))
	}
	if list.Total < 3 {
		t.Fatalf("total = %d, want >= 3", list.Total)
	}
	for _, bad := range []string{"0", "-1", "x"} {
		resp, err := http.Get(ts.URL + "/debug/traces?limit=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("limit=%s: status = %d, want 400", bad, resp.StatusCode)
		}
	}
}
