package main

import (
	"net/http"
	"testing"

	"safesense/internal/campaign"
	"safesense/internal/obs/forensic"
	"safesense/internal/sim"
)

// runCollisionCampaign submits an undefended DoS sweep (which reliably
// collides) and polls it to completion, returning the campaign ID.
func runCollisionCampaign(t *testing.T, url string) string {
	t.Helper()
	off := false
	spec := campaign.Spec{
		Name:       "forensic-api",
		Steps:      200,
		BaseSeed:   7,
		Replicates: 4,
		Defended:   &off,
		Attacks:    []string{campaign.AttackDoS},
		Onsets:     []int{150},
	}
	ack := decodeJSON[SubmitResponse](t, postJSON(t, url+"/v1/campaigns",
		SubmitRequest{Spec: spec, Workers: 2}), http.StatusAccepted)
	st := pollCampaign(t, url, ack.ID)
	if st.Status != statusDone {
		t.Fatalf("campaign ended %s: %s", st.Status, st.Error)
	}
	if st.Summary.Aggregate.Collisions == 0 {
		t.Fatal("undefended DoS sweep produced no collisions")
	}
	return ack.ID
}

type anomalyList struct {
	Anomalies []forensic.Meta `json:"anomalies"`
	Total     int             `json:"total"`
	Offset    int             `json:"offset"`
	Limit     int             `json:"limit"`
}

func TestAnomalyEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := runCollisionCampaign(t, ts.URL)

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Campaign jobs with anomaly dumps were auto-captured.
	list := decodeJSON[anomalyList](t, get("/v1/anomalies"), http.StatusOK)
	if list.Total == 0 || len(list.Anomalies) == 0 {
		t.Fatalf("no anomalies after a colliding campaign: %+v", list)
	}
	if list.Limit != defaultAnomalyLimit || list.Offset != 0 {
		t.Errorf("default paging = limit %d offset %d", list.Limit, list.Offset)
	}

	// Filters: by campaign ID, by kind, and a no-match combination.
	byCampaign := decodeJSON[anomalyList](t, get("/v1/anomalies?campaign="+id), http.StatusOK)
	if byCampaign.Total != list.Total {
		t.Errorf("campaign filter total = %d, want %d (all captures are this campaign's)",
			byCampaign.Total, list.Total)
	}
	byKind := decodeJSON[anomalyList](t, get("/v1/anomalies?kind="+sim.AnomalyCollision), http.StatusOK)
	if byKind.Total == 0 {
		t.Error("kind=collision filter returned nothing")
	}
	none := decodeJSON[anomalyList](t, get("/v1/anomalies?campaign=nope"), http.StatusOK)
	if none.Total != 0 || len(none.Anomalies) != 0 {
		t.Errorf("no-match filter returned %+v", none)
	}

	// Paging slices the same ordered listing.
	page := decodeJSON[anomalyList](t, get("/v1/anomalies?limit=1&offset=1"), http.StatusOK)
	if len(page.Anomalies) != 1 || page.Total != list.Total {
		t.Errorf("page = %d rows of total %d, want 1 of %d", len(page.Anomalies), page.Total, list.Total)
	}
	if page.Anomalies[0].Hash != list.Anomalies[1].Hash {
		t.Error("offset=1 page does not align with the full listing")
	}

	// Malformed paging params are a client error.
	for _, p := range []string{"/v1/anomalies?limit=x", "/v1/anomalies?offset=-1"} {
		resp := get(p)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", p, resp.StatusCode)
		}
	}

	// Single-capture fetch: full evidence for a listed hash, 404 for an
	// unknown one.
	hash := byKind.Anomalies[0].Hash
	one := decodeJSON[struct {
		Hash    string           `json:"hash"`
		Capture forensic.Capture `json:"capture"`
	}](t, get("/v1/anomalies/"+hash), http.StatusOK)
	if one.Hash != hash || len(one.Capture.Flight) == 0 || len(one.Capture.Anomalies) == 0 {
		t.Errorf("capture payload incomplete: hash %q, %d flight events, %d dumps",
			one.Hash, len(one.Capture.Flight), len(one.Capture.Anomalies))
	}
	resp := get("/v1/anomalies/deadbeef")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown hash = %d, want 404", resp.StatusCode)
	}

	// Replay: the stored capture must reproduce bit-for-bit.
	rep := decodeJSON[campaign.ReplayReport](t,
		postJSON(t, ts.URL+"/v1/anomalies/"+hash+"/replay", nil), http.StatusOK)
	if rep.Result != forensic.ReplayIdentical || rep.Hash != hash {
		t.Fatalf("replay report = %+v, want identical for %s", rep, hash)
	}
	if rep.CollisionAt < 0 {
		t.Error("replayed collision capture reported no collision")
	}
	resp = postJSON(t, ts.URL+"/v1/anomalies/deadbeef/replay", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("replay of unknown hash = %d, want 404", resp.StatusCode)
	}
}

func TestTracesReportDropCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	payload := decodeJSON[map[string]any](t, resp, http.StatusOK)
	for _, key := range []string{"evicted_spans", "total"} {
		if _, ok := payload[key]; !ok {
			t.Errorf("/debug/traces payload missing %q: %v", key, payload)
		}
	}
}
