package dist

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	obstrace "safesense/internal/obs/trace"
)

// completionTap records every lease completion a coordinator receives
// before handing the request on, so a test can judge each span batch
// a worker shipped.
type completionTap struct {
	next http.Handler

	mu   sync.Mutex
	reqs []CompleteRequest
}

func (tp *completionTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/dist/lease/complete" {
		body, err := io.ReadAll(r.Body)
		var req CompleteRequest
		if err == nil && json.Unmarshal(body, &req) == nil {
			tp.mu.Lock()
			tp.reqs = append(tp.reqs, req)
			tp.mu.Unlock()
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	tp.next.ServeHTTP(w, r)
}

func (tp *completionTap) completions() []CompleteRequest {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return append([]CompleteRequest(nil), tp.reqs...)
}

// runTracedCampaign runs spec on one worker whose span store holds
// workerSpans, in leases of leaseJobs, against a coordinator with its
// own store. It returns the done status, the completions the
// coordinator received, and the coordinator's campaign trace.
func runTracedCampaign(t *testing.T, leaseJobs, workerSpans, replicates int) (Status, []CompleteRequest, []obstrace.SpanRecord) {
	t.Helper()
	coordTraces := obstrace.NewStore(obstrace.DefaultCapacity)
	tap := &completionTap{next: NewCoordinator(Config{
		LeaseJobs: leaseJobs,
		LeaseTTL:  time.Minute,
		Clock:     newFakeClock().Now,
		Traces:    coordTraces,
	}).Handler()}
	c := serveCluster(t, tap)

	spec := testSpec("lease-spans")
	spec.Attacks = []string{"dos"}
	spec.Onsets = []int{10, 20, 30, 40}
	spec.Replicates = replicates
	sub := c.submit(spec)
	c.startWorkers(1, WorkerConfig{
		ID: "spans", Jobs: 2, PollInterval: 5 * time.Millisecond,
		Traces: obstrace.NewStore(workerSpans),
	})
	st := c.wait(sub.ID, nil)
	c.stop()
	requireOracle(t, st, spec)
	return st, tap.completions(), coordTraces.Trace(st.TraceID)
}

// requireLeaseBatch fails unless one completion's span batch is the
// subtree of exactly one dist.lease span: every other span's parent
// ships in the same batch, and every campaign.job span ran one of the
// lease's own jobs.
func requireLeaseBatch(t *testing.T, req CompleteRequest) {
	t.Helper()
	ids := make(map[string]bool, len(req.Spans))
	var lease *obstrace.SpanRecord
	for i, rec := range req.Spans {
		ids[rec.SpanID] = true
		if rec.Name == "dist.lease" {
			if lease != nil {
				t.Fatalf("lease %s shipped two dist.lease spans", req.LeaseID)
			}
			lease = &req.Spans[i]
		}
	}
	if lease == nil {
		t.Fatalf("lease %s shipped %d spans but not its dist.lease span", req.LeaseID, len(req.Spans))
	}
	attr := func(rec obstrace.SpanRecord, key string) int {
		for _, a := range rec.Attrs {
			if a.Key == key {
				v, err := strconv.Atoi(a.Value)
				if err != nil {
					t.Fatalf("span %s attr %s = %q", rec.Name, key, a.Value)
				}
				return v
			}
		}
		t.Fatalf("span %s has no %s attr", rec.Name, key)
		return 0
	}
	start, end := attr(*lease, "start"), attr(*lease, "end")
	for _, rec := range req.Spans {
		if rec.Name != "dist.lease" && !ids[rec.ParentID] {
			t.Errorf("lease %s shipped %s span %s whose parent %q is not in the batch",
				req.LeaseID, rec.Name, rec.SpanID, rec.ParentID)
		}
		if rec.Name == "campaign.job" {
			if j := attr(rec, "job"); j < start || j >= end {
				t.Errorf("lease %s [%d, %d) shipped the span of job %d", req.LeaseID, start, end, j)
			}
		}
	}
}

// requireStitched fails unless the coordinator's campaign trace holds
// one dist.lease span per lease, no span twice, and no orphan: every
// span's parent is in the trace, or the span is a root of the campaign
// trace (the coordinator's dist.campaign or a worker's dist.lease).
func requireStitched(t *testing.T, st Status, spans []obstrace.SpanRecord) {
	t.Helper()
	ids := make(map[string]bool, len(spans))
	leases := 0
	for _, rec := range spans {
		if ids[rec.SpanID] {
			t.Errorf("span %s (%s) stored twice in trace %s", rec.SpanID, rec.Name, st.TraceID)
		}
		ids[rec.SpanID] = true
		if rec.Name == "dist.lease" {
			leases++
		}
	}
	if leases != st.Leases {
		t.Errorf("coordinator trace holds %d dist.lease spans, want one per lease (%d)", leases, st.Leases)
	}
	for _, rec := range spans {
		root := rec.ParentID == "" && (rec.Name == "dist.campaign" || rec.Name == "dist.lease")
		if !root && !ids[rec.ParentID] {
			t.Errorf("%s span %s is an orphan: parent %q not in trace %s", rec.Name, rec.SpanID, rec.ParentID, st.TraceID)
		}
	}
}

// TestLeaseSpanStitchedOnLargeLease pins the span cap policy: a 40-job
// lease records far more spans than one completion may ship, and the
// shipped subset must still carry the dist.lease span and only spans
// whose parents ship with it, so the coordinator's trace stays whole.
func TestLeaseSpanStitchedOnLargeLease(t *testing.T) {
	st, reqs, spans := runTracedCampaign(t, 40, obstrace.DefaultCapacity, 20) // 80 jobs, 2 leases
	if st.Leases != 2 {
		t.Fatalf("campaign ran %d leases, want 2", st.Leases)
	}
	for _, req := range reqs {
		if len(req.Spans) != MaxCompleteSpans {
			t.Errorf("40-job lease %s shipped %d spans, want the %d-span cap", req.LeaseID, len(req.Spans), MaxCompleteSpans)
		}
		requireLeaseBatch(t, req)
	}
	requireStitched(t, st, spans)
}

// TestLeaseSpansAcrossWrappedStore runs 8-job leases on a worker whose
// 64-span store wraps every couple of leases, so most leases start
// with an earlier lease's spans still resident and some wrap mid-run:
// each completion must ship exactly its own lease's spans.
func TestLeaseSpansAcrossWrappedStore(t *testing.T) {
	st, reqs, spans := runTracedCampaign(t, 8, 64, 10) // 40 jobs, 5 leases
	if len(reqs) != st.Leases {
		t.Fatalf("coordinator got %d completions for %d leases", len(reqs), st.Leases)
	}
	for _, req := range reqs {
		requireLeaseBatch(t, req)
	}
	requireStitched(t, st, spans)
}
