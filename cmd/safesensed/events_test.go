package main

import (
	"encoding/json"
	"net/http"
	"testing"

	"safesense/internal/campaign"
	"safesense/internal/obs/stream"
)

// collidingSpec is an undefended DoS sweep: the follower holds the last
// pre-attack measurement and collides shortly after onset, every seed.
func collidingSpec(name string, replicates int) campaign.Spec {
	off := false
	return campaign.Spec{
		Name: name, Steps: 200, BaseSeed: 7, Replicates: replicates,
		Defended: &off, Attacks: []string{campaign.AttackDoS}, Onsets: []int{150},
	}
}

// wireEvent reads an audit-log entry or flight frame, telling a missing
// job_index apart from job 0.
type wireEvent struct {
	Kind     string `json:"kind"`
	JobIndex *int   `json:"job_index"`
}

func campaignEvents(t *testing.T, base, id string) []wireEvent {
	t.Helper()
	resp, err := http.Get(base + "/v1/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	return decodeJSON[struct {
		Events []wireEvent `json:"events"`
	}](t, resp, http.StatusOK).Events
}

func isIncident(kind string) bool {
	switch kind {
	case campaign.IncidentCollision, campaign.IncidentFalsePositive, campaign.IncidentFalseNegative:
		return true
	}
	return false
}

// TestJobZeroIncidentAttribution: a one-job campaign that collides
// attributes the collision to job_index 0 in the audit log and on the
// stream's flight frame; lifecycle entries carry job_index -1.
func TestJobZeroIncidentAttribution(t *testing.T) {
	hub := stream.NewHub(0)
	_, ts := newTestServer(t, Config{Streams: hub})
	ack := decodeJSON[SubmitResponse](t, postJSON(t, ts.URL+"/v1/campaigns",
		SubmitRequest{Spec: collidingSpec("job-zero", 1)}), http.StatusAccepted)
	if ack.Jobs != 1 {
		t.Fatalf("campaign expands to %d jobs, want 1", ack.Jobs)
	}
	if st := pollCampaign(t, ts.URL, ack.ID); st.Status != statusDone {
		t.Fatalf("campaign ended %s: %s", st.Status, st.Error)
	}

	collisions := 0
	for _, ev := range campaignEvents(t, ts.URL, ack.ID) {
		want := -1
		if isIncident(ev.Kind) {
			want = 0
		}
		if ev.Kind == campaign.IncidentCollision {
			collisions++
		}
		if ev.JobIndex == nil || *ev.JobIndex != want {
			t.Errorf("audit-log %q entry has job_index %v, want %d", ev.Kind, ev.JobIndex, want)
		}
	}
	if collisions != 1 {
		t.Fatalf("audit log lists %d collisions, want 1", collisions)
	}

	flights := 0
	for _, ev := range hub.Replay(ack.ID, 0) {
		if ev.Type != campaign.StreamFlight {
			continue
		}
		var fe wireEvent
		if err := json.Unmarshal(ev.Data, &fe); err != nil {
			t.Fatalf("flight frame %s: %v", ev.Data, err)
		}
		if fe.JobIndex == nil || *fe.JobIndex != 0 {
			t.Errorf("flight frame %s lacks job_index 0", ev.Data)
		}
		flights++
	}
	if flights == 0 {
		t.Fatal("no flight frame for the collision")
	}
}

// TestDiscardOutcomesKeepsIncidents: discard_outcomes drops the per-job
// outcome list from the summary, not the incidents from the audit log.
func TestDiscardOutcomesKeepsIncidents(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ack := decodeJSON[SubmitResponse](t, postJSON(t, ts.URL+"/v1/campaigns",
		SubmitRequest{Spec: collidingSpec("discard", 4), Workers: 2, DiscardOutcomes: true}),
		http.StatusAccepted)
	st := pollCampaign(t, ts.URL, ack.ID)
	if st.Status != statusDone {
		t.Fatalf("campaign ended %s: %s", st.Status, st.Error)
	}
	if len(st.Summary.Outcomes) != 0 {
		t.Fatalf("summary kept %d outcomes under discard_outcomes", len(st.Summary.Outcomes))
	}
	want := st.Summary.Aggregate.Collisions
	if want == 0 {
		t.Fatal("undefended DoS sweep produced no collisions")
	}
	got := 0
	for _, ev := range campaignEvents(t, ts.URL, ack.ID) {
		if ev.Kind == campaign.IncidentCollision {
			got++
		}
	}
	if got != want {
		t.Fatalf("audit log lists %d collision events, aggregate counts %d", got, want)
	}
}
