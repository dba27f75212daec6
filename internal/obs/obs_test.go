package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestWritePrometheusGolden pins the exposition format: counter, gauge,
// and histogram rendering, label ordering, and label-value escaping.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()

	reqs := r.Counter("http_requests_total", "Total HTTP requests.", "method", "route")
	reqs.With("GET", "/healthz").Add(3)
	reqs.With("POST", "/v1/run").Inc()

	inFlight := r.Gauge("http_in_flight", "Requests currently being served.")
	inFlight.With().Set(2)

	lat := r.Histogram("request_seconds", "Request latency.", []float64{0.1, 1}, "route")
	h := lat.With("/v1/run")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	esc := r.Counter("odd_labels_total", `Says "hi" with a \ and`+"\na newline.", "what")
	esc.With(`quo"te\slash` + "\nnewline").Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP http_in_flight Requests currently being served.
# TYPE http_in_flight gauge
http_in_flight 2
# HELP http_requests_total Total HTTP requests.
# TYPE http_requests_total counter
http_requests_total{method="GET",route="/healthz"} 3
http_requests_total{method="POST",route="/v1/run"} 1
# HELP odd_labels_total Says "hi" with a \\ and\na newline.
# TYPE odd_labels_total counter
odd_labels_total{what="quo\"te\\slash\nnewline"} 1
# HELP request_seconds Request latency.
# TYPE request_seconds histogram
request_seconds_bucket{route="/v1/run",le="0.1"} 1
request_seconds_bucket{route="/v1/run",le="1"} 2
request_seconds_bucket{route="/v1/run",le="+Inf"} 3
request_seconds_sum{route="/v1/run"} 5.55
request_seconds_count{route="/v1/run"} 3
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestUnlabeledFamiliesRenderAtZero(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_done_total", "Jobs done.")
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "jobs_done_total 0\n") {
		t.Errorf("unlabeled counter missing zero sample:\n%s", sb.String())
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c", "k")
	c.With("a").Add(2)
	c.With("b").Inc()
	hv := r.Histogram("h_seconds", "h", []float64{1})
	hv.With().Observe(0.5)
	hv.With().Observe(3)

	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("families = %d, want 2", len(snap))
	}
	// Sorted by name: c_total then h_seconds.
	cs := snap[0]
	if cs.Name != "c_total" || cs.Kind != "counter" || len(cs.Metrics) != 2 {
		t.Fatalf("counter snapshot = %+v", cs)
	}
	if cs.Metrics[0].Labels["k"] != "a" || cs.Metrics[0].Value != 2 {
		t.Errorf("counter child a = %+v", cs.Metrics[0])
	}
	hs := snap[1]
	if hs.Kind != "histogram" || len(hs.Metrics) != 1 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
	m := hs.Metrics[0]
	if m.Count != 2 || m.Sum != 3.5 || len(m.Buckets) != 2 {
		t.Fatalf("histogram metric = %+v", m)
	}
	if m.Buckets[0].Count != 1 || m.Buckets[1].Count != 2 {
		t.Errorf("cumulative buckets = %+v", m.Buckets)
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines so
// `go test -race` vets the lock-free hot path.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	cv := r.Counter("conc_total", "c", "worker")
	gv := r.Gauge("conc_gauge", "g")
	hv := r.Histogram("conc_seconds", "h", []float64{0.5, 1, 2}, "worker")

	const goroutines, iters = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			worker := string(rune('a' + id))
			c := cv.With(worker)
			h := hv.With(worker)
			for i := 0; i < iters; i++ {
				c.Inc()
				gv.With().Add(1)
				h.Observe(float64(i%3) + 0.25)
				if i%100 == 0 {
					// Concurrent reads while writers are hot.
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()

	var total float64
	for _, m := range r.Snapshot() {
		if m.Name == "conc_total" {
			for _, child := range m.Metrics {
				total += child.Value
			}
		}
	}
	if want := float64(goroutines * iters); total != want {
		t.Errorf("counter total = %g, want %g", total, want)
	}
	if got := gv.With().Value(); got != float64(goroutines*iters) {
		t.Errorf("gauge = %g", got)
	}
	var count uint64
	for _, w := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		count += hv.With(w).Count()
	}
	if count != goroutines*iters {
		t.Errorf("histogram count = %d", count)
	}
}

func TestReRegistrationReturnsSameFamily(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "a", "k")
	b := r.Counter("same_total", "b", "k")
	a.With("x").Inc()
	if got := b.With("x").Value(); got != 1 {
		t.Errorf("re-registered family is not shared: %g", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch should panic")
		}
	}()
	r.Gauge("same_total", "now a gauge", "k")
}

func TestPublishExpvarIdempotent(t *testing.T) {
	r := NewRegistry()
	r.Counter("expvar_total", "x").With().Inc()
	// Second publish under the same name must not panic.
	r.PublishExpvar("obs_test_metrics")
	r.PublishExpvar("obs_test_metrics")
}
