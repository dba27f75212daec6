package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"safesense/internal/campaign"
	obstrace "safesense/internal/obs/trace"
)

// Handler returns a standalone mux with the coordinator routes — what
// the in-process integration tests serve over httptest.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	c.Register(mux)
	return mux
}

// cluster is the in-process distributed harness the smoke and
// integration tests share: one coordinator served over httptest plus
// pull workers, each under its own context so a test can kill one
// mid-campaign.
type cluster struct {
	t   *testing.T
	url string

	ctx    context.Context // every worker's two-minute deadline
	cancel context.CancelFunc
	kills  []context.CancelFunc
	wg     sync.WaitGroup
}

// newCluster starts a coordinator from cfg and serves it. The test's
// cleanup stops the workers, then the server.
func newCluster(t *testing.T, cfg Config) *cluster {
	t.Helper()
	return serveCluster(t, NewCoordinator(cfg).Handler())
}

// serveCluster serves a coordinator handler (wrapped, say, to tap its
// requests) as a cluster.
func serveCluster(t *testing.T, h http.Handler) *cluster {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	c := &cluster{t: t, url: srv.URL}
	c.ctx, c.cancel = context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(c.stop)
	return c
}

// startWorkers starts n pull workers from tmpl, worker i named
// tmpl.ID followed by i. Each gets its own span store, as a separate
// process would, so its lease spans reach the coordinator only through
// completion-time stitching; tmpl.Traces, when set, sizes that store.
func (c *cluster) startWorkers(n int, tmpl WorkerConfig) {
	c.t.Helper()
	for i := 0; i < n; i++ {
		wc := tmpl
		wc.Coordinator = c.url
		wc.ID = fmt.Sprintf("%s%d", tmpl.ID, i)
		wc.Traces = obstrace.NewStore(4096)
		if tmpl.Traces != nil {
			wc.Traces = obstrace.NewStore(tmpl.Traces.Stats().Capacity)
		}
		w, err := NewWorker(wc)
		if err != nil {
			c.t.Fatalf("NewWorker: %v", err)
		}
		ctx, kill := context.WithCancel(c.ctx)
		c.kills = append(c.kills, kill)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			_ = w.Run(ctx)
		}()
	}
}

// kill cancels worker i, as if its process died mid-lease.
func (c *cluster) kill(i int) { c.kills[i]() }

// stop cancels every worker and waits for them to exit.
func (c *cluster) stop() {
	c.cancel()
	c.wg.Wait()
}

// submit posts spec as a distributed campaign and returns the 202 reply.
func (c *cluster) submit(spec campaign.Spec) SubmitResponse {
	c.t.Helper()
	body, err := json.Marshal(SubmitRequest{Spec: spec})
	if err != nil {
		c.t.Fatalf("marshal: %v", err)
	}
	res, err := http.Post(c.url+"/v1/dist/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		c.t.Fatalf("submit: %v", err)
	}
	defer res.Body.Close()
	var sub SubmitResponse
	if err := json.NewDecoder(res.Body).Decode(&sub); err != nil {
		c.t.Fatalf("decode submit: %v", err)
	}
	if res.StatusCode != http.StatusAccepted {
		c.t.Fatalf("submit status = %d", res.StatusCode)
	}
	return sub
}

// wait polls the campaign every 5 ms until it is done, handing each
// earlier status to each (when non-nil). The poll budget, not a
// wall-clock deadline (the determinism analyzer covers this package's
// tests too), bounds the wait at about two minutes.
func (c *cluster) wait(id string, each func(Status)) Status {
	c.t.Helper()
	for poll := 0; ; poll++ {
		res, err := http.Get(c.url + "/v1/dist/campaigns/" + id)
		if err != nil {
			c.t.Fatalf("status: %v", err)
		}
		var st Status
		err = json.NewDecoder(res.Body).Decode(&st)
		res.Body.Close()
		if err != nil {
			c.t.Fatalf("decode status: %v", err)
		}
		if st.Status == StatusDone {
			return st
		}
		if each != nil {
			each(st)
		}
		if poll > 24000 {
			c.t.Fatalf("campaign did not finish: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// requireOracle fails the test unless a done campaign's merged
// aggregate is byte-identical to the single-node run of spec.
func requireOracle(t *testing.T, st Status, spec campaign.Spec) {
	t.Helper()
	if st.Summary == nil {
		t.Fatal("done campaign has no summary")
	}
	got, err := json.Marshal(st.Summary.Aggregate)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if want := oracleAggregate(t, spec); !bytes.Equal(got, want) {
		t.Fatalf("distributed aggregate diverges from single-node oracle\n got: %s\nwant: %s", got, want)
	}
}
