package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"safesense/internal/campaign"
)

// fakeClock is a hand-advanced time source for lease-expiry tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
}

// testSpec expands to a small multi-attack grid (fast at 50 steps).
func testSpec(name string) campaign.Spec {
	return campaign.Spec{
		Name:    name,
		Steps:   50,
		Attacks: []string{campaign.AttackDoS, campaign.AttackDelay, campaign.AttackNone},
		Onsets:  []int{15, 30},
	}
}

// runShard computes a lease's honest completion payload.
func runShard(t *testing.T, lease AcquireResponse) CompleteRequest {
	t.Helper()
	jobs, err := lease.Spec.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	outcomes, err := campaign.RunJobs(context.Background(), jobs[lease.Start:lease.End], campaign.Options{Workers: 2})
	if err != nil {
		t.Fatalf("RunJobs: %v", err)
	}
	return CompleteRequest{
		LeaseID:  lease.LeaseID,
		WorkerID: "test-worker",
		Partial:  campaign.PartialOfOutcomes(outcomes),
		Events:   OutcomeEvents(outcomes),
	}
}

// oracleAggregate runs the spec single-node and returns its aggregate
// as JSON — the differential oracle every distributed path must match.
func oracleAggregate(t *testing.T, spec campaign.Spec) []byte {
	t.Helper()
	sum, err := campaign.Run(context.Background(), spec, campaign.Options{Workers: 4})
	if err != nil {
		t.Fatalf("oracle Run: %v", err)
	}
	b, err := json.Marshal(sum.Aggregate)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

func TestCoordinatorLeaseLifecycle(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(Config{LeaseJobs: 2, LeaseTTL: time.Minute, Clock: clock.Now})
	spec := testSpec("lease-lifecycle")

	sub, err := c.Submit(SubmitRequest{Spec: spec}, "")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if sub.Jobs == 0 || sub.Leases != (sub.Jobs+1)/2 {
		t.Fatalf("submit reported %d jobs / %d leases", sub.Jobs, sub.Leases)
	}

	// Grants walk the shards in index order.
	first, ok := c.Acquire("w1")
	if !ok || first.Shard != 0 || first.Start != 0 {
		t.Fatalf("first grant = %+v, ok=%v", first, ok)
	}
	second, ok := c.Acquire("w2")
	if !ok || second.Shard != 1 {
		t.Fatalf("second grant = %+v, ok=%v", second, ok)
	}

	// A holder's heartbeat extends its lease past the original TTL: at
	// 90s both held leases are still live, so the next grant is shard 2.
	// A heartbeat from a non-holder is refused as a lost lease.
	heartbeat := func(l AcquireResponse, worker string) error {
		return c.Progress(ProgressRequest{LeaseID: l.LeaseID, WorkerID: worker})
	}
	clock.Advance(45 * time.Second)
	if err := heartbeat(first, "w1"); err != nil {
		t.Fatalf("heartbeat of shard 0: %v", err)
	}
	if err := heartbeat(second, "w2"); err != nil {
		t.Fatalf("heartbeat of shard 1: %v", err)
	}
	clock.Advance(45 * time.Second)
	if third, ok := c.Acquire("w3"); !ok || third.Shard != 2 {
		t.Fatalf("grant after heartbeats = %+v, ok=%v, want shard 2", third, ok)
	}
	if err := heartbeat(first, "w2"); !errors.Is(err, errLeaseLost) {
		t.Fatalf("heartbeat by a non-holder = %v, want lease lost", err)
	}

	// Expiry: advance past the TTL; the next acquire steals shard 0.
	clock.Advance(2 * time.Minute)
	stolen, ok := c.Acquire("w3")
	if !ok || stolen.Shard != 0 {
		t.Fatalf("post-expiry grant = %+v, ok=%v", stolen, ok)
	}
	if err := heartbeat(first, "w1"); !errors.Is(err, errLeaseLost) {
		t.Fatalf("heartbeat of a reassigned lease = %v, want lease lost", err)
	}

	// The stale holder's completion is still accepted while the shard
	// is open (deterministic data), and the re-granted holder's copy
	// is acknowledged as a duplicate.
	done := runShard(t, first)
	done.WorkerID = "w1"
	if resp, err := c.Complete(done); err != nil || resp.Duplicate {
		t.Fatalf("stale-holder completion: %+v, %v", resp, err)
	}
	dup := runShard(t, stolen)
	dup.WorkerID = "w3"
	resp, err := c.Complete(dup)
	if err != nil || !resp.Duplicate {
		t.Fatalf("duplicate completion: %+v, %v", resp, err)
	}

	// A wrong-sized partial is rejected.
	bad := runShard(t, second)
	bad.Partial.Jobs++
	bad.Partial.Attacked = bad.Partial.Jobs
	if _, err := c.Complete(bad); err == nil {
		t.Fatal("wrong-sized partial accepted")
	}

	st, ok := c.CampaignStatus(sub.ID)
	if !ok || st.DoneLeases != 1 || st.Status != StatusRunning {
		t.Fatalf("status = %+v, ok=%v", st, ok)
	}
}

// TestCoordinatorDriveToOracle completes every lease by hand and checks
// the final summary aggregate against the single-node oracle,
// byte-for-byte.
func TestCoordinatorDriveToOracle(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(Config{LeaseJobs: 3, Clock: clock.Now})
	spec := testSpec("drive-to-oracle")
	sub, err := c.Submit(SubmitRequest{Spec: spec}, "")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for {
		lease, ok := c.Acquire("w1")
		if !ok {
			break
		}
		if _, err := c.Complete(runShard(t, lease)); err != nil {
			t.Fatalf("Complete: %v", err)
		}
	}
	st, ok := c.CampaignStatus(sub.ID)
	if !ok || st.Status != StatusDone || st.Summary == nil {
		t.Fatalf("campaign not done: %+v", st)
	}
	got, err := json.Marshal(st.Summary.Aggregate)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if want := oracleAggregate(t, spec); !bytes.Equal(got, want) {
		t.Fatalf("distributed aggregate diverges from oracle\n got: %s\nwant: %s", got, want)
	}
	if st.DoneJobs != st.Jobs || st.DoneLeases != st.Leases {
		t.Fatalf("progress incomplete at done: %+v", st)
	}
}

// TestCheckpointResume drives half the leases, replays the checkpoint
// into a fresh coordinator (a coordinator restart), finishes the rest
// there, and checks the summary still matches the oracle byte-for-byte
// — and that no completed shard was ever re-leased after the restore.
func TestCheckpointResume(t *testing.T) {
	clock := newFakeClock()
	var log bytes.Buffer
	c1 := NewCoordinator(Config{LeaseJobs: 2, Clock: clock.Now})
	c1.AttachCheckpoint(&log)
	spec := testSpec("checkpoint-resume")
	sub, err := c1.Submit(SubmitRequest{Spec: spec}, "")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	completed := 0
	target := (sub.Leases + 1) / 2
	for completed < target {
		lease, ok := c1.Acquire("w1")
		if !ok {
			t.Fatal("ran out of leases before the halfway mark")
		}
		if _, err := c1.Complete(runShard(t, lease)); err != nil {
			t.Fatalf("Complete: %v", err)
		}
		completed++
	}
	// One lease is granted but never completed — the in-flight shard a
	// dying coordinator would strand; resume must re-lease it.
	if _, ok := c1.Acquire("w1"); !ok {
		t.Fatal("no in-flight lease to strand")
	}

	c2 := NewCoordinator(Config{LeaseJobs: 2, Clock: clock.Now})
	if err := c2.Restore(bytes.NewReader(log.Bytes())); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	st, ok := c2.CampaignStatus(sub.ID)
	if !ok || st.DoneLeases != completed {
		t.Fatalf("restored status = %+v, ok=%v", st, ok)
	}

	seen := make(map[int]bool)
	for {
		lease, ok := c2.Acquire("w2")
		if !ok {
			break
		}
		if seen[lease.Shard] {
			t.Fatalf("shard %d leased twice after restore", lease.Shard)
		}
		seen[lease.Shard] = true
		if _, err := c2.Complete(runShard(t, lease)); err != nil {
			t.Fatalf("Complete: %v", err)
		}
	}
	if len(seen) != sub.Leases-completed {
		t.Fatalf("resume re-leased %d shards, want %d", len(seen), sub.Leases-completed)
	}
	st, _ = c2.CampaignStatus(sub.ID)
	if st.Status != StatusDone || st.Summary == nil {
		t.Fatalf("resumed campaign not done: %+v", st)
	}
	got, err := json.Marshal(st.Summary.Aggregate)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if want := oracleAggregate(t, spec); !bytes.Equal(got, want) {
		t.Fatalf("resumed aggregate diverges from oracle\n got: %s\nwant: %s", got, want)
	}
}

// TestRestoreRejectsCorruptLog exercises the checkpoint loader's
// validation: truncated JSON, unknown kinds, range mismatches, and
// partials that cannot finalize to a finite, non-negative aggregate.
func TestRestoreRejectsCorruptLog(t *testing.T) {
	spec := testSpec("corrupt")
	jobs, err := spec.NumJobs()
	if err != nil {
		t.Fatalf("NumJobs: %v", err)
	}
	campaignLine := func() string {
		rec := checkpointRecord{Kind: recordCampaign, Campaign: &CampaignRecord{
			ID: "d000001", Spec: spec, Jobs: jobs, LeaseJobs: 2,
		}}
		b, _ := json.Marshal(rec)
		return string(b)
	}
	cases := map[string]string{
		"bad json":             "{not json",
		"unknown kind":         `{"kind":"mystery"}`,
		"lease first":          `{"kind":"lease","lease":{"campaign":"d000001","shard":0,"start":0,"end":2,"partial":{"jobs":2,"worst_min_gap_m":1}}}`,
		"wrong jobs":           strings.Replace(campaignLine(), `"jobs":`+itoa(jobs), `"jobs":`+itoa(jobs+1), 1),
		"shard range":          campaignLine() + "\n" + `{"kind":"lease","lease":{"campaign":"d000001","shard":0,"start":0,"end":3,"partial":{"jobs":3,"worst_min_gap_m":1}}}`,
		"oversized partial":    campaignLine() + "\n" + `{"kind":"lease","lease":{"campaign":"d000001","shard":0,"start":0,"end":2,"partial":{"jobs":5,"worst_min_gap_m":1}}}`,
		"overflowing RMSE sum": campaignLine() + "\n" + leaseLine(`"worst_dist_err_m":1,"dist_rmse":[1.7e308,1.7e308],"vel_rmse":[0.5]`),
		"negative RMSE sum":    campaignLine() + "\n" + leaseLine(`"worst_dist_err_m":1,"dist_rmse":[0.5],"vel_rmse":[-0.5]`),
		"negative worst error": campaignLine() + "\n" + leaseLine(`"worst_dist_err_m":-1,"dist_rmse":[0.5],"vel_rmse":[0.5]`),
	}
	for name, log := range cases {
		c := NewCoordinator(Config{Clock: newFakeClock().Now})
		if err := c.Restore(strings.NewReader(log)); err == nil {
			t.Errorf("%s: corrupt checkpoint accepted", name)
		}
	}
}

// leaseLine is a checkpoint record completing shard 0 of d000001 with
// a 2-job, 2-estimate partial whose remaining fields are rest.
func leaseLine(rest string) string {
	return `{"kind":"lease","lease":{"campaign":"d000001","shard":0,"start":0,"end":2,` +
		`"partial":{"jobs":2,"estimated_runs":2,"worst_min_gap_m":1,` + rest + `}}}`
}

// TestRestoreRefusesSampleListCheckpoint: a checkpoint written when
// partials carried index-tagged sample lists fails to restore with an
// error: latency samples decode as zero counts and RMSE samples do not
// decode as exact-sum terms. Nothing restores to a wrong aggregate.
func TestRestoreRefusesSampleListCheckpoint(t *testing.T) {
	spec := testSpec("sample-lists")
	jobs, err := spec.NumJobs()
	if err != nil {
		t.Fatalf("NumJobs: %v", err)
	}
	b, err := json.Marshal(checkpointRecord{Kind: recordCampaign, Campaign: &CampaignRecord{
		ID: "d000001", Spec: spec, Jobs: jobs, LeaseJobs: 2,
	}})
	if err != nil {
		t.Fatal(err)
	}
	for name, rest := range map[string]string{
		"latency samples": `"attacked":2,"detected":1,"latencies":[{"i":0,"v":6}],"dist_rmse":[0.5],"vel_rmse":[0.5]`,
		"rmse samples":    `"dist_rmse":[{"i":0,"v":0.7},{"i":1,"v":0.2}],"vel_rmse":[{"i":0,"v":0.1},{"i":1,"v":0.3}]`,
	} {
		c := NewCoordinator(Config{Clock: newFakeClock().Now})
		err := c.Restore(strings.NewReader(string(b) + "\n" + leaseLine(rest)))
		if err == nil {
			t.Errorf("%s: sample-list checkpoint restored", name)
			continue
		}
		t.Logf("%s: %v", name, err)
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}
