package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"safesense/internal/campaign"
	"safesense/internal/obs"
)

// TestMetricsEndpoint is the acceptance scenario: after a POST /v1/run,
// GET /metrics must expose the HTTP request families, the campaign
// counters, and the per-phase simulation histogram in Prometheus text.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Only a diagnostics (include_traces) run is timed and feeds the
	// phase histogram.
	req := RunRequest{Point: campaign.Point{
		Attack: campaign.AttackDoS, Leader: campaign.LeaderConst,
		Onset: 182, JammerMW: 100, Steps: 301, Seed: 1, Defended: true,
	}, IncludeTraces: true}
	resp := postJSON(t, ts.URL+"/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status = %d", resp.StatusCode)
	}
	// Read the answer to its end: the server finishes a large chunked
	// body only after the middleware has counted the request, so the
	// scrape below cannot overtake that count.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("metrics content-type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		// No exact counts: the default registry is shared across the
		// package's tests, so only the series' presence is asserted.
		`safesense_http_requests_total{method="POST",route="/v1/run",status="200"}`,
		`safesense_http_request_seconds_bucket{method="POST",route="/v1/run",le="+Inf"}`,
		"safesense_campaign_jobs_done_total",
		`safesense_sim_phase_seconds_count{phase="radar_synthesis"}`,
		`safesense_sim_phase_seconds_count{phase="rls_estimation"}`,
		`safesense_sim_phase_seconds_count{phase="cra_check"}`,
		`safesense_sim_phase_seconds_count{phase="vehicle_step"}`,
		"safesense_http_in_flight",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// panicServer builds a server with an extra route whose handler panics,
// on a private registry so counter assertions are exact.
func panicServer(t *testing.T) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	srv := NewServer(Config{
		Log:     slog.New(slog.NewTextHandler(io.Discard, nil)),
		Metrics: reg,
	})
	srv.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Drain()
	})
	return srv, ts, reg
}

func TestMiddlewareCapturesStatusAndLatency(t *testing.T) {
	reg := obs.NewRegistry()
	var logBuf bytes.Buffer
	_, ts := newTestServer(t, Config{
		Log:     slog.New(slog.NewJSONHandler(&logBuf, nil)),
		Metrics: reg,
	})

	// One 200 and one 404.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/v1/campaigns/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	m := newHTTPMetrics(reg)
	if got := m.requests.With("GET", "/healthz", "200").Value(); got != 1 {
		t.Errorf("healthz 200 count = %g", got)
	}
	if got := m.requests.With("GET", "/v1/campaigns/{id}", "404").Value(); got != 1 {
		t.Errorf("campaign 404 count = %g", got)
	}
	h := m.latency.With("GET", "/healthz")
	if h.Count() != 1 || h.Sum() <= 0 {
		t.Errorf("latency histogram count=%d sum=%g", h.Count(), h.Sum())
	}

	// The structured request log carries method/route/status/bytes.
	var found bool
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		if rec["msg"] == "request" && rec["route"] == "/healthz" {
			found = true
			if rec["status"] != float64(200) || rec["method"] != "GET" {
				t.Errorf("request log = %v", rec)
			}
			if b, ok := rec["bytes"].(float64); !ok || b <= 0 {
				t.Errorf("request log bytes = %v", rec["bytes"])
			}
			if _, ok := rec["duration_ms"].(float64); !ok {
				t.Errorf("request log duration_ms = %v", rec["duration_ms"])
			}
		}
	}
	if !found {
		t.Errorf("no request log for /healthz in:\n%s", logBuf.String())
	}
}

// TestRouteLabelFollowsMux: the route label is the serving mux
// pattern, so every registered route (the profile routes included) gets
// its own label and an unrouted path collapses to "other".
func TestRouteLabelFollowsMux(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Metrics: reg})
	for _, path := range []string{"/v1/profiles", "/v1/profiles/p1", "/no/such/route"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	m := newHTTPMetrics(reg)
	for _, route := range []string{"/v1/profiles", "/v1/profiles/{id}", "other"} {
		if got := m.requests.With("GET", route, "404").Value(); got != 1 {
			t.Errorf("route %q 404 count = %g, want 1", route, got)
		}
	}
}

func TestMiddlewareRecoversPanics(t *testing.T) {
	_, ts, reg := panicServer(t)
	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status = %d, want 500", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("500 body is not JSON: %v", err)
	}
	m := newHTTPMetrics(reg)
	if got := m.panics.Value(); got != 1 {
		t.Errorf("panics counter = %g, want 1", got)
	}
	if got := m.requests.With("GET", "/boom", "500").Value(); got != 1 {
		t.Errorf("500 request count = %g, want 1", got)
	}
	if got := m.inFlight.Value(); got != 0 {
		t.Errorf("in-flight gauge = %g after panic", got)
	}
}

func TestBodyLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 512})

	huge := fmt.Sprintf(`{"include_traces": false, "attack": "%s"}`, strings.Repeat("x", 2048))
	for _, path := range []string{"/v1/run", "/v1/campaigns"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s: 413 body is not JSON: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413", path, resp.StatusCode)
		}
		if body["error"] == "" {
			t.Errorf("%s: 413 response missing error field", path)
		}
	}

	// A small valid body still works under the same cap.
	req := RunRequest{Point: campaign.Point{
		Attack: campaign.AttackNone, Leader: campaign.LeaderConst, Steps: 50, Seed: 1,
	}}
	resp := postJSON(t, ts.URL+"/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("small body: status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestCampaignStatusWhileRunning checks the live-progress fields: a slow
// signal-level campaign polled mid-flight reports runs_per_sec and
// eta_seconds, which disappear once terminal.
func TestCampaignStatusWhileRunning(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := campaign.Spec{
		Steps: 301, Replicates: 48, SignalLevel: true, Onsets: []int{182},
	}
	ack := decodeJSON[SubmitResponse](t, postJSON(t, ts.URL+"/v1/campaigns",
		SubmitRequest{Spec: spec, Workers: 2}), http.StatusAccepted)

	// Poll until at least one job finished while still running, so the
	// engine has produced stats.
	var live StatusResponse
	gotLive := false
	for i := 0; i < 3000 && !gotLive; i++ {
		resp, err := http.Get(ts.URL + "/v1/campaigns/" + ack.ID)
		if err != nil {
			t.Fatal(err)
		}
		live = decodeJSON[StatusResponse](t, resp, http.StatusOK)
		if live.Status != statusRunning {
			break // finished before we caught it mid-flight
		}
		if live.Done > 0 && live.Done < live.Jobs {
			gotLive = true
		}
	}
	if gotLive {
		if live.RunsPerSec <= 0 {
			t.Errorf("running campaign runs_per_sec = %g, want > 0", live.RunsPerSec)
		}
		if live.ETASeconds <= 0 {
			t.Errorf("running campaign eta_seconds = %g, want > 0", live.ETASeconds)
		}
		if live.CreatedAt.IsZero() || live.ElapsedSeconds <= 0 {
			t.Errorf("running campaign created_at=%v elapsed=%g", live.CreatedAt, live.ElapsedSeconds)
		}
	}

	st := pollCampaign(t, ts.URL, ack.ID)
	if st.Status != statusDone {
		t.Fatalf("campaign ended %s: %s", st.Status, st.Error)
	}
	// Terminal status drops the live fields; the summary has the final
	// throughput instead.
	if st.RunsPerSec != 0 || st.ETASeconds != 0 {
		t.Errorf("terminal status keeps live fields: %+v", st)
	}
	if st.Summary == nil || st.Summary.RunsPerSec <= 0 {
		t.Errorf("summary runs/sec missing")
	}
}

func TestNewLoggerFormats(t *testing.T) {
	for _, format := range []string{"text", "json"} {
		if _, err := newLogger(format); err != nil {
			t.Errorf("newLogger(%q) = %v", format, err)
		}
	}
	if _, err := newLogger("yaml"); err == nil {
		t.Error("newLogger(yaml) should fail")
	}
}

func TestPprofMuxRoutes(t *testing.T) {
	ts := httptest.NewServer(pprofMux())
	defer ts.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status = %d", path, resp.StatusCode)
		}
	}
}
