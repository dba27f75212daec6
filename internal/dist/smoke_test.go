package dist

import (
	"testing"
	"time"
)

// TestDistSmoke is the CI distributed-execution gate (`make dist-smoke`):
// a coordinator and two pull workers shard a 64-job campaign over the
// HTTP API; the merged aggregate must be byte-identical to the
// single-node oracle and both workers must have delivered shards.
func TestDistSmoke(t *testing.T) {
	c := newCluster(t, Config{
		LeaseJobs: 8,
		LeaseTTL:  time.Minute,
		Clock:     newFakeClock().Now,
	})

	spec := testSpec("dist-smoke")
	spec.Attacks = []string{"dos"}
	spec.Onsets = []int{10, 20, 30, 40}
	spec.Replicates = 16 // 4 grid points x 16 seeds = 64 jobs

	sub := c.submit(spec)
	if sub.Jobs != 64 || sub.Leases != 8 {
		t.Fatalf("grid shape = %d jobs / %d leases, want 64 / 8", sub.Jobs, sub.Leases)
	}

	c.startWorkers(2, WorkerConfig{ID: "smoke", Jobs: 2, PollInterval: 5 * time.Millisecond})
	st := c.wait(sub.ID, nil)
	c.stop()

	requireOracle(t, st, spec)
	delivered := 0
	for _, w := range st.Workers {
		if w.LeasesDone > 0 {
			delivered++
		}
	}
	if delivered < 2 {
		t.Fatalf("only %d worker(s) delivered shards: %+v", delivered, st.Workers)
	}
	t.Logf("dist smoke: %d jobs over %d leases, %d workers, aggregate matches oracle",
		st.Jobs, st.Leases, delivered)
}
