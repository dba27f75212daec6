package dist

import (
	"context"
	"testing"
	"time"

	"safesense/internal/campaign"
	"safesense/internal/obs/forensic"
	obstrace "safesense/internal/obs/trace"
	"safesense/internal/sim"
)

// forensicSmokeSpec is a sweep that reliably collides: undefended DoS
// holds the last pre-attack measurement, so the follower closes the gap
// shortly after onset regardless of seed.
func forensicSmokeSpec() campaign.Spec {
	off := false
	return campaign.Spec{
		Name:       "forensic-smoke",
		Steps:      200,
		BaseSeed:   7,
		Replicates: 8,
		Defended:   &off,
		Attacks:    []string{"dos"},
		Onsets:     []int{150},
	}
}

// TestForensicSmoke is the CI anomaly-forensics gate (`make
// forensic-smoke`): two workers shard a collision-bearing sweep; the
// coordinator must persist the worker-shipped captures in its forensic
// store (relabeled to its campaign ID), replaying a stored capture must
// reproduce the flight timeline bit-for-bit, resubmitting the same
// sweep must dedup to zero new captures, worker-side lease spans must
// be stitched into the coordinator's trace store, and the merged
// aggregate must stay byte-identical to the single-node oracle.
func TestForensicSmoke(t *testing.T) {
	fstore, err := forensic.Open(forensic.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("forensic.Open: %v", err)
	}
	defer fstore.Close()
	coordTraces := obstrace.NewStore(4096)

	c := newCluster(t, Config{
		LeaseJobs: 2,
		LeaseTTL:  time.Minute,
		Clock:     newFakeClock().Now,
		Traces:    coordTraces,
		Forensic:  fstore,
	})
	spec := forensicSmokeSpec()
	submit := func() Status { return c.wait(c.submit(spec).ID, nil) }

	// Each worker keeps its own span store, so lease spans reach
	// coordTraces only via stitching.
	c.startWorkers(2, WorkerConfig{ID: "forensic", Jobs: 2, PollInterval: 5 * time.Millisecond})

	st := submit()

	// The distributed aggregate must stay byte-identical to the
	// single-node oracle: captures and spans are sidecars, never inputs.
	requireOracle(t, st, spec)
	if st.Summary.Aggregate.Collisions == 0 {
		t.Fatal("undefended DoS sweep produced no collisions; the smoke needs them")
	}

	// Worker-shipped captures landed in the coordinator's store,
	// relabeled to the coordinator's campaign ID.
	if st.Captures == 0 {
		t.Fatal("campaign status reports zero stored captures")
	}
	metas, total := fstore.List(forensic.Query{Campaign: st.ID})
	if total == 0 || len(metas) == 0 {
		t.Fatalf("no captures listed for campaign %s (store has %d)", st.ID, fstore.Len())
	}
	if total != st.Captures {
		t.Errorf("store lists %d captures for %s, status says %d", total, st.ID, st.Captures)
	}
	collisions, _ := fstore.List(forensic.Query{Campaign: st.ID, Kind: sim.AnomalyCollision})
	if len(collisions) == 0 {
		t.Fatal("no collision-kind captures for a colliding sweep")
	}
	wantSpec := spec.Hash()
	for _, m := range metas {
		if m.SpecHash != wantSpec {
			t.Errorf("capture %s spec hash %q, want %q", m.Hash, m.SpecHash, wantSpec)
		}
	}

	// Replay a stored capture: the determinism invariant must hold
	// bit-for-bit through the worker -> wire -> store round trip.
	cap0, ok := fstore.Get(collisions[0].Hash)
	if !ok {
		t.Fatalf("Get(%s) missing", collisions[0].Hash)
	}
	rep, err := campaign.ReplayDiff(context.Background(), collisions[0].Hash, cap0)
	if err != nil {
		t.Fatalf("ReplayDiff: %v", err)
	}
	if rep.Result != forensic.ReplayIdentical {
		t.Fatalf("stored capture did not replay identically: %+v", rep.Diffs)
	}
	if rep.CollisionAt < 0 {
		t.Error("replayed collision capture reported no collision")
	}

	// Cross-node trace stitching: the workers used their own span
	// stores, so lease spans can only appear under the coordinator's
	// campaign trace via the completion-time span batches.
	stitched := false
	for _, rec := range coordTraces.Trace(st.TraceID) {
		if rec.Name == "dist.lease" {
			stitched = true
			break
		}
	}
	if !stitched {
		t.Errorf("no worker lease span stitched into coordinator trace %s", st.TraceID)
	}

	// Resubmitting the same sweep federates onto the same content
	// addresses: the second campaign stores nothing new.
	before := fstore.Len()
	st2 := submit()
	if st2.ID == st.ID {
		t.Fatalf("resubmission reused campaign ID %s", st.ID)
	}
	if st2.Captures != 0 {
		t.Errorf("resubmitted sweep stored %d new captures, want 0 (dedup)", st2.Captures)
	}
	if after := fstore.Len(); after != before {
		t.Errorf("store grew %d -> %d on a resubmitted sweep", before, after)
	}

	c.stop()
	t.Logf("forensic smoke: %d captures (%d collisions) for %s, replay identical, resubmission deduped",
		st.Captures, len(collisions), st.ID)
}
