package campaign

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestRunOnStats(t *testing.T) {
	spec := Spec{Steps: 50, Onsets: []int{10}, Replicates: 4}
	var mu sync.Mutex
	var got []Stats
	sum, err := Run(context.Background(), spec, Options{
		Workers: 2,
		OnOutcome: func(_ Outcome, st Stats) {
			mu.Lock()
			got = append(got, st)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != sum.Aggregate.Jobs {
		t.Fatalf("stats callbacks = %d, want %d", len(got), sum.Aggregate.Jobs)
	}
	for i, st := range got {
		if st.Done != i+1 {
			t.Errorf("stats[%d] = %+v, want done=%d", i, st, i+1)
		}
	}
	last := got[len(got)-1]
	if last.RunsPerSec <= 0 {
		t.Errorf("final runs/sec = %g", last.RunsPerSec)
	}
	if last.ETA != 0 {
		t.Errorf("final ETA = %v, want 0 once everything is done", last.ETA)
	}
}

func TestStatsAt(t *testing.T) {
	st := statsAt(5, 20, 2*time.Second)
	if st.RunsPerSec != 2.5 {
		t.Errorf("runs/sec = %g, want 2.5", st.RunsPerSec)
	}
	if st.ETA != 6*time.Second {
		t.Errorf("ETA = %v, want 6s", st.ETA)
	}
	// Degenerate inputs stay at zero instead of dividing by zero.
	if st := statsAt(0, 20, time.Second); st.RunsPerSec != 0 || st.ETA != 0 {
		t.Errorf("zero-done stats = %+v", st)
	}
	if st := statsAt(1, 20, 0); st.RunsPerSec != 0 || st.ETA != 0 {
		t.Errorf("zero-elapsed stats = %+v", st)
	}
}

func TestEngineJobMetrics(t *testing.T) {
	before := metricJobsDone.With().Value()
	spec := Spec{Steps: 50, Onsets: []int{10}, Replicates: 3}
	sum, err := Run(context.Background(), spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	delta := metricJobsDone.With().Value() - before
	if delta != float64(sum.Aggregate.Jobs) {
		t.Errorf("jobs_done_total advanced by %g, want %d", delta, sum.Aggregate.Jobs)
	}
	if metricJobSeconds.With().Count() == 0 {
		t.Error("job_seconds histogram never observed")
	}
	if metricWorkerBusySeconds.With().Value() <= 0 {
		t.Error("worker busy seconds not accumulated")
	}
	if metricActiveCampaigns.With().Value() != 0 {
		t.Errorf("active campaigns gauge = %g after completion", metricActiveCampaigns.With().Value())
	}
}
