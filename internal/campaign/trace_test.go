package campaign

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"

	obstrace "safesense/internal/obs/trace"
)

// traceSpec is a small grid that still exercises worker contention: 8
// jobs on a short horizon.
func traceSpec() Spec {
	return Spec{
		Name:       "trace-unit",
		Steps:      60,
		BaseSeed:   11,
		Replicates: 4,
		Attacks:    []string{AttackNone, AttackDoS},
		Onsets:     []int{20},
	}
}

// TestTraceContextPropagation runs a multi-worker campaign under a traced
// context and verifies the span tree reaches all the way into the
// simulator: root → campaign.run → campaign.job → sim.run, with every
// span carrying the root's trace ID. Run with -race (make race) this also
// shakes out data races in the span store under the worker pool.
func TestTraceContextPropagation(t *testing.T) {
	st := obstrace.NewStore(1024)
	ctx, root := st.Root(context.Background(), "test.request", "")
	sum, err := Run(ctx, traceSpec(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	jobs := len(sum.Outcomes)
	byID := map[string]obstrace.SpanRecord{}
	kinds := map[string]int{}
	for _, rec := range st.Records() {
		if rec.TraceID != root.TraceID() {
			t.Fatalf("span %s carries trace %s, want %s", rec.Name, rec.TraceID, root.TraceID())
		}
		byID[rec.SpanID] = rec
		kinds[rec.Name]++
	}
	if kinds["campaign.run"] != 1 {
		t.Fatalf("got %d campaign.run spans, want 1", kinds["campaign.run"])
	}
	for _, name := range []string{"campaign.job", "sim.run", "campaign.aggregate"} {
		if kinds[name] != jobs {
			t.Errorf("got %d %s spans, want %d", kinds[name], name, jobs)
		}
	}
	if kinds["campaign.queue_wait"] < jobs {
		t.Errorf("got %d queue_wait spans, want >= %d", kinds["campaign.queue_wait"], jobs)
	}

	// Parent linkage: job hangs off campaign.run, sim.run off a job.
	for _, rec := range byID {
		switch rec.Name {
		case "campaign.run":
			if parent, ok := byID[rec.ParentID]; !ok || parent.Name != "test.request" {
				t.Errorf("campaign.run parent = %q, want test.request", parentName(byID, rec))
			}
		case "campaign.job", "campaign.queue_wait":
			if parent, ok := byID[rec.ParentID]; !ok || parent.Name != "campaign.run" {
				t.Errorf("%s parent = %q, want campaign.run", rec.Name, parentName(byID, rec))
			}
		case "sim.run", "campaign.aggregate":
			if parent, ok := byID[rec.ParentID]; !ok || parent.Name != "campaign.job" {
				t.Errorf("%s parent = %q, want campaign.job", rec.Name, parentName(byID, rec))
			}
		}
	}
}

func parentName(byID map[string]obstrace.SpanRecord, rec obstrace.SpanRecord) string {
	if p, ok := byID[rec.ParentID]; ok {
		return p.Name
	}
	return "<missing " + rec.ParentID + ">"
}

// TestUntracedContextStaysInert: with no root span in the context the
// engine must not record anything (and must not crash touching inert
// spans).
func TestUntracedContextStaysInert(t *testing.T) {
	if _, err := Run(context.Background(), traceSpec(), Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestSlowestJobsTable checks the top-K table: bounded, sorted
// descending, rows identify real jobs by index and seed.
func TestSlowestJobsTable(t *testing.T) {
	spec := Spec{Steps: 50, Onsets: []int{10}, Replicates: 12}
	sum, err := Run(context.Background(), spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Aggregate.Jobs <= DefaultSlowestJobs {
		t.Fatalf("spec has %d jobs; the bound needs more than %d", sum.Aggregate.Jobs, DefaultSlowestJobs)
	}
	rows := sum.SlowestJobs
	if len(rows) != DefaultSlowestJobs {
		t.Fatalf("got %d slowest-job rows, want %d", len(rows), DefaultSlowestJobs)
	}
	seeds := map[int64]string{}
	for _, o := range sum.Outcomes {
		seeds[o.Point.Seed] = o.Label
	}
	for i, r := range rows {
		if i > 0 && r.Seconds > rows[i-1].Seconds {
			t.Errorf("slowest-jobs not sorted descending at row %d: %v > %v", i, r.Seconds, rows[i-1].Seconds)
		}
		if label, ok := seeds[r.Seed]; !ok || label != r.Label {
			t.Errorf("row %d (seed %d, label %q) does not match any outcome", i, r.Seed, r.Label)
		}
		if r.Index < 0 || r.Index >= len(sum.Outcomes) {
			t.Errorf("row %d index %d out of range", i, r.Index)
		}
	}
}

// TestJobLogCarriesIndexAndSeed: every engine log record must identify
// the job by index and seed so concurrent sweeps stay attributable.
func TestJobLogCarriesIndexAndSeed(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	sum, err := Run(context.Background(), traceSpec(), Options{Workers: 2, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(sum.Outcomes) {
		t.Fatalf("got %d log records, want one per job (%d):\n%s", len(lines), len(sum.Outcomes), buf.String())
	}
	for _, line := range lines {
		if !strings.Contains(line, "job=") || !strings.Contains(line, "seed=") {
			t.Errorf("log record missing job/seed attribution: %s", line)
		}
	}
}
