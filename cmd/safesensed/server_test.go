package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"safesense/internal/campaign"
	"safesense/internal/obs"
	"safesense/internal/report"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	srv := NewServer(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Drain()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJSON[T any](t *testing.T, resp *http.Response, wantCode int) T {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("status = %d, want %d; body: %s", resp.StatusCode, wantCode, raw)
	}
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	return v
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h := decodeJSON[map[string]any](t, resp, http.StatusOK)
	if h["ok"] != true {
		t.Fatalf("healthz = %v", h)
	}
}

// TestRunLogsOneRecord: a POST /v1/run writes one log record, the
// middleware's request line; the run's outcome is in the response body.
func TestRunLogsOneRecord(t *testing.T) {
	logBuf := &syncBuffer{}
	_, ts := newTestServer(t, Config{Log: slog.New(slog.NewJSONHandler(logBuf, nil))})
	req := RunRequest{Point: campaign.Point{
		Attack: campaign.AttackDoS, Leader: campaign.LeaderConst,
		Onset: 182, JammerMW: 100, Steps: 301, Seed: 1, Defended: true,
	}}
	decodeJSON[report.RunSummary](t, postJSON(t, ts.URL+"/v1/run", req), http.StatusOK)
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], `"msg":"request"`) {
		t.Fatalf("want one request record, got %d:\n%s", len(lines), logBuf.String())
	}
}

func TestRunEndpointPaperScenario(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := RunRequest{Point: campaign.Point{
		Attack: campaign.AttackDoS, Leader: campaign.LeaderConst,
		Onset: 182, JammerMW: 100, Steps: 301, Seed: 1, Defended: true,
	}}
	before := phaseSamples()
	raw := decodeJSON[json.RawMessage](t, postJSON(t, ts.URL+"/v1/run", req), http.StatusOK)
	var sum report.RunSummary
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if sum.DetectedAt != 182 || sum.FalsePositives != 0 || sum.FalseNegatives != 0 {
		t.Fatalf("paper run summary = %+v", sum)
	}
	if sum.Traces != nil {
		t.Fatal("traces must be opt-in")
	}
	// A plain run is untimed: no rls_time_ns claim, no phase samples.
	if v, ok := keys["rls_time_ns"]; ok {
		t.Errorf("plain run answered rls_time_ns = %s", v)
	}
	if n := phaseSamples() - before; n != 0 {
		t.Errorf("plain run added %d safesense_sim_phase_seconds samples", n)
	}
}

// phaseSamples counts every safesense_sim_phase_seconds observation in
// the default registry (tests in this package run one at a time).
func phaseSamples() uint64 {
	var n uint64
	for _, f := range obs.Default().Snapshot() {
		if f.Name == "safesense_sim_phase_seconds" {
			for _, m := range f.Metrics {
				n += m.Count
			}
		}
	}
	return n
}

func TestRunEndpointWithTraces(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := RunRequest{
		Point: campaign.Point{Attack: campaign.AttackDelay, Leader: campaign.LeaderPhased,
			Onset: 180, OffsetM: 6, Steps: 301, Seed: 1, Defended: true},
		IncludeTraces: true,
	}
	sum := decodeJSON[report.RunSummary](t, postJSON(t, ts.URL+"/v1/run", req), http.StatusOK)
	if sum.Traces == nil || len(sum.Traces.Distance.Series) == 0 {
		t.Fatal("requested traces missing")
	}
	// A diagnostics run is Traced, which includes the phase timing.
	if sum.RLSTimeNs == nil || *sum.RLSTimeNs <= 0 {
		t.Errorf("traced run rls_time_ns = %v, want > 0", sum.RLSTimeNs)
	}
}

func TestRunEndpointRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []any{
		RunRequest{Point: campaign.Point{Attack: "emp"}},
		map[string]any{"attack": "dos", "surprise": 1}, // unknown field
	}
	for i, body := range cases {
		resp := postJSON(t, ts.URL+"/v1/run", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status = %d, want 400", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestTrailingDataRejected pins the strict body contract on both JSON
// endpoints: anything after the request object but whitespace is a 400,
// whether garbage or a second concatenated object.
func TestTrailingDataRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bodies := map[string]string{
		"/v1/run":       `{"attack":"none","leader":"const","steps":20,"seed":1}`,
		"/v1/campaigns": `{"spec":{"steps":20,"replicates":1,"attacks":["none"],"onsets":[10]},"discard_outcomes":true}`,
	}
	okCode := map[string]int{"/v1/run": http.StatusOK, "/v1/campaigns": http.StatusAccepted}
	for path, body := range bodies {
		for _, tail := range []string{" trailing garbage", body, "]"} {
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body+tail)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s with trailing %q: status = %d, want 400", path, tail, resp.StatusCode)
			}
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body+" \n\t\n")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != okCode[path] {
			t.Errorf("%s with trailing whitespace: status = %d, want %d", path, resp.StatusCode, okCode[path])
		}
	}
}

// pollCampaign polls the status endpoint until the campaign reaches a
// terminal state.
func pollCampaign(t *testing.T, base, id string) StatusResponse {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decodeJSON[StatusResponse](t, resp, http.StatusOK)
		if st.Status != statusRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s still %s after timeout (%d/%d)", id, st.Status, st.Done, st.Jobs)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCampaignEndToEnd is the acceptance scenario: submit a 64-job sweep
// over the Figure 2a/2b grid (DoS + delay attacks, constant-deceleration
// leader, paper schedule), poll to completion, and check the aggregate.
func TestCampaignEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := campaign.Spec{
		Name:       "fig2-grid",
		Steps:      301,
		BaseSeed:   42,
		Replicates: 16, // 2 attacks × 2 onsets × 16 seeds = 64 jobs
		Attacks:    []string{campaign.AttackDoS, campaign.AttackDelay},
		Leaders:    []string{campaign.LeaderConst},
		Onsets:     []int{175, 182}, // both challenge instants, per the paper
	}
	ack := decodeJSON[SubmitResponse](t, postJSON(t, ts.URL+"/v1/campaigns",
		SubmitRequest{Spec: spec, Workers: 4}), http.StatusAccepted)
	if ack.Jobs != 64 {
		t.Fatalf("expanded jobs = %d, want 64", ack.Jobs)
	}

	st := pollCampaign(t, ts.URL, ack.ID)
	if st.Status != statusDone {
		t.Fatalf("campaign ended %s: %s", st.Status, st.Error)
	}
	if st.Done != 64 || st.Summary == nil {
		t.Fatalf("done=%d summary=%v", st.Done, st.Summary != nil)
	}
	agg := st.Summary.Aggregate
	if agg.Jobs != 64 || agg.Detected != 64 || agg.Missed != 0 {
		t.Fatalf("aggregate = %+v", agg)
	}
	// The paper's Section 6.2 claim, held over the whole grid.
	if agg.FalsePositives != 0 || agg.FalseNegatives != 0 {
		t.Fatalf("FP=%d FN=%d, want 0/0", agg.FalsePositives, agg.FalseNegatives)
	}
	// Detection-latency percentiles present (instant detection here).
	if agg.Latency.N != 64 || agg.Latency.P99 != 0 || agg.Latency.Histogram == nil {
		t.Fatalf("latency = %+v", agg.Latency)
	}
	if st.Summary.RunsPerSec <= 0 {
		t.Fatalf("runs/sec = %g", st.Summary.RunsPerSec)
	}
	if len(st.Summary.Outcomes) != 64 {
		t.Fatalf("outcomes = %d", len(st.Summary.Outcomes))
	}
}

func TestCampaignNotFoundAndCaps(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxJobs: 10})
	resp, err := http.Get(ts.URL + "/v1/campaigns/nope")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing campaign: status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	big := campaign.Spec{Replicates: 100}
	resp = postJSON(t, ts.URL+"/v1/campaigns", SubmitRequest{Spec: big})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized campaign: status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	bad := campaign.Spec{Attacks: []string{"emp"}}
	resp = postJSON(t, ts.URL+"/v1/campaigns", SubmitRequest{Spec: bad})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid campaign: status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestCampaignStoreEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxCampaigns: 2})
	tiny := campaign.Spec{Steps: 50, Onsets: []int{10}} // 1 fast job
	var ids []string
	for i := 0; i < 3; i++ {
		ack := decodeJSON[SubmitResponse](t, postJSON(t, ts.URL+"/v1/campaigns",
			SubmitRequest{Spec: tiny}), http.StatusAccepted)
		pollCampaign(t, ts.URL, ack.ID)
		ids = append(ids, ack.ID)
	}
	// The oldest campaign was evicted to admit the third.
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted campaign still present: status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// The two newest remain.
	for _, id := range ids[1:] {
		resp, err := http.Get(ts.URL + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("campaign %s: status = %d", id, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestCampaignCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A big slow campaign (signal-level pipeline) so cancellation lands
	// while it is still running.
	spec := campaign.Spec{
		Steps:       301,
		Replicates:  64,
		SignalLevel: true,
		Onsets:      []int{182},
	}
	ack := decodeJSON[SubmitResponse](t, postJSON(t, ts.URL+"/v1/campaigns",
		SubmitRequest{Spec: spec, Workers: 2}), http.StatusAccepted)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+ack.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	st := pollCampaign(t, ts.URL, ack.ID)
	if st.Status != statusCancelled {
		t.Fatalf("status after cancel = %s", st.Status)
	}
}

func TestSubmitRejectedWhenStoreFullOfRunning(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxCampaigns: 1})
	slow := campaign.Spec{Steps: 301, Replicates: 64, SignalLevel: true, Onsets: []int{182}}
	ack := decodeJSON[SubmitResponse](t, postJSON(t, ts.URL+"/v1/campaigns",
		SubmitRequest{Spec: slow, Workers: 1}), http.StatusAccepted)

	resp := postJSON(t, ts.URL+"/v1/campaigns", SubmitRequest{Spec: slow})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("full store: status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Cancel the hog so cleanup is fast.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+ack.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	srv.Drain()
}
