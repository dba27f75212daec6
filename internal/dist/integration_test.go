package dist

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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

// TestWorkerLosesLeaseMidRun drives the lost-lease path: the worker's
// lease expires mid-run on the fake clock and is re-granted to another
// worker, so the holder's next heartbeat gets 410, the run is
// cancelled, the lease is abandoned as lost mid-run, and the worker
// lease-failure counter goes up by exactly one.
func TestWorkerLosesLeaseMidRun(t *testing.T) {
	clock := newFakeClock()
	coord := NewCoordinator(Config{LeaseJobs: MaxLeaseJobs, LeaseTTL: time.Minute, Clock: clock.Now})
	h := coord.Handler()
	var (
		mu       sync.Mutex
		regrant  AcquireResponse
		stolen   bool
		statuses []int
	)
	c := serveCluster(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/dist/lease/progress" {
			h.ServeHTTP(w, r)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if !stolen {
			clock.Advance(2 * time.Minute)
			regrant, stolen = coord.Acquire("thief")
		}
		cw := &codeWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		statuses = append(statuses, cw.code)
	}))

	spec := testSpec("lost-lease")
	spec.Steps = 300
	spec.Replicates = 128 // 640 jobs in one lease (~100 ms): the run outlasts the first 10 ms heartbeat
	sub := c.submit(spec)
	before := metricWorkerLeaseFailures.With().Value()
	logs := &syncBuffer{}
	c.startWorkers(1, WorkerConfig{
		ID: "holder", Jobs: 1, PollInterval: 5 * time.Millisecond, ProgressInterval: 10 * time.Millisecond,
		Log: slog.New(slog.NewTextHandler(logs, nil)),
	})
	for poll := 0; !strings.Contains(logs.String(), "dist lease abandoned"); poll++ {
		if poll > 24000 {
			t.Fatalf("worker never abandoned its lease; log:\n%s", logs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.stop()

	mu.Lock()
	defer mu.Unlock()
	if !stolen || regrant.Campaign != sub.ID || regrant.Shard != 0 {
		t.Fatalf("re-grant = %+v, ok=%v, want shard 0 of %s", regrant, stolen, sub.ID)
	}
	if len(statuses) != 1 || statuses[0] != http.StatusGone {
		t.Fatalf("heartbeat statuses = %v, want one 410", statuses)
	}
	if !strings.Contains(logs.String(), "lost mid-run") {
		t.Fatalf("abandoned lease not reported as lost mid-run; log:\n%s", logs)
	}
	if got := metricWorkerLeaseFailures.With().Value() - before; got != 1 {
		t.Fatalf("worker lease failures rose by %g, want 1", got)
	}
}

// codeWriter records the status code a handler writes.
type codeWriter struct {
	http.ResponseWriter
	code int
}

func (cw *codeWriter) WriteHeader(code int) {
	cw.code = code
	cw.ResponseWriter.WriteHeader(code)
}

// syncBuffer is a log sink the worker goroutines and the test share.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) String() string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.String()
}

// TestHTTPErrorPaths checks the transport contract: malformed bodies and
// progress snapshots that do not fit the shard are 400s, unknown
// campaigns 404, lost leases 410, rejected completions 409, and an idle
// coordinator returns 204 on acquire.
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
	if res := post("/v1/dist/lease/progress", `{"lease_id":"nope","worker_id":"w","partial":{}}`); res.StatusCode != http.StatusGone {
		t.Fatalf("unknown lease progress status = %d, want 410", res.StatusCode)
	}
	if _, err := coord.Submit(SubmitRequest{Spec: testSpec("http-errors")}, ""); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	lease, ok := coord.Acquire("w")
	if !ok {
		t.Fatal("no lease granted")
	}
	oversized := `{"lease_id":"` + lease.LeaseID + `","worker_id":"w","partial":{"jobs":3}}` // the shard spans 2
	if res := post("/v1/dist/lease/progress", oversized); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized progress status = %d, want 400", res.StatusCode)
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
