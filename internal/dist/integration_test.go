package dist

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestMultiWorkerCampaign is the end-to-end distributed oracle: an
// in-process coordinator behind httptest, three pull workers, one of
// which is killed mid-campaign (its lease expires and is reassigned),
// and the merged summary must still be byte-identical to the
// single-node run. Run under -race this also exercises the
// coordinator's lock discipline against concurrent workers.
func TestMultiWorkerCampaign(t *testing.T) {
	clock := newFakeClock()
	c := newCluster(t, Config{
		LeaseJobs: 4,
		LeaseTTL:  time.Second,
		Clock:     clock.Now,
	})

	spec := testSpec("multi-worker")
	spec.Replicates = 12 // 60-job grid: enough leases for three workers to overlap

	sub := c.submit(spec)
	if sub.Jobs < 40 || sub.Leases < 10 {
		t.Fatalf("grid too small to shard meaningfully: %d jobs / %d leases", sub.Jobs, sub.Leases)
	}

	c.startWorkers(3, WorkerConfig{ID: "itw", Jobs: 2, PollInterval: 5 * time.Millisecond})

	// Kill worker 0 once the campaign is visibly under way but far from
	// done, then advance the fake clock while polling so its orphaned
	// lease expires and is re-granted to a survivor.
	killed := false
	st := c.wait(sub.ID, func(st Status) {
		if !killed && st.DoneLeases >= 1 {
			c.kill(0)
			killed = true
		}
		if killed {
			clock.Advance(500 * time.Millisecond)
		}
	})
	if !killed {
		t.Fatal("campaign finished before the victim worker could be killed")
	}
	c.stop()

	requireOracle(t, st, spec)
	if st.DoneJobs != sub.Jobs {
		t.Fatalf("done jobs = %d, want %d", st.DoneJobs, sub.Jobs)
	}
	// At least two distinct workers must have delivered shards — the
	// point of the exercise is sharded execution, not one fast worker.
	delivered := 0
	for _, w := range st.Workers {
		if w.LeasesDone > 0 {
			delivered++
		}
	}
	if delivered < 2 {
		t.Fatalf("only %d worker(s) delivered shards: %+v", delivered, st.Workers)
	}
}

// TestHTTPErrorPaths checks the transport contract: malformed bodies are
// 400s, unknown campaigns 404, lost leases 410, rejected completions
// 409, and an idle coordinator returns 204 on acquire.
func TestHTTPErrorPaths(t *testing.T) {
	clock := newFakeClock()
	coord := NewCoordinator(Config{LeaseJobs: 2, LeaseTTL: time.Minute, Clock: clock.Now})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	post := func(path, body string) *http.Response {
		t.Helper()
		res, err := http.Post(srv.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		res.Body.Close()
		return res
	}

	if res := post("/v1/dist/lease", `{"worker_id":"w"}`); res.StatusCode != http.StatusNoContent {
		t.Fatalf("idle acquire status = %d, want 204", res.StatusCode)
	}
	if res := post("/v1/dist/campaigns", `{"spec":{"steps":-5}}`); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec status = %d, want 400", res.StatusCode)
	}
	if res := post("/v1/dist/campaigns", `{"spec":{"steps":50,"attacks":["dos"]},"bogus":1}`); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field status = %d, want 400", res.StatusCode)
	}
	if res := post("/v1/dist/lease", `{"worker_id":"has space"}`); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad worker id status = %d, want 400", res.StatusCode)
	}
	if res := post("/v1/dist/lease/renew", `{"lease_id":"nope","worker_id":"w"}`); res.StatusCode != http.StatusGone {
		t.Fatalf("unknown lease renew status = %d, want 410", res.StatusCode)
	}
	if res := post("/v1/dist/lease/complete", `{"lease_id":"nope","worker_id":"w","partial":{}}`); res.StatusCode != http.StatusConflict {
		t.Fatalf("unknown lease complete status = %d, want 409", res.StatusCode)
	}
	res, err := http.Get(srv.URL + "/v1/dist/campaigns/d999999")
	if err != nil {
		t.Fatalf("GET status: %v", err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign status = %d, want 404", res.StatusCode)
	}
}
