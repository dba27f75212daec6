package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"
)

// oracleOutcomes runs the unit fixture once and returns its grid-order
// outcomes plus the single-node aggregate serialized to JSON — the
// byte-identity target every streamed path must hit.
func oracleOutcomes(t *testing.T) ([]Outcome, []byte) {
	t.Helper()
	sum, err := Run(context.Background(), testSpec(), Options{Workers: 2})
	if err != nil {
		t.Fatalf("oracle run: %v", err)
	}
	want, err := json.Marshal(sum.Aggregate)
	if err != nil {
		t.Fatalf("marshal oracle: %v", err)
	}
	return sum.Outcomes, want
}

// TestAccumulatorFinalizeMatchesOracle feeds outcomes in several random
// completion orders; the final snapshot must validate and finalize
// byte-identical to the single-node AggregateOutcomes fold.
func TestAccumulatorFinalizeMatchesOracle(t *testing.T) {
	outcomes, want := oracleOutcomes(t)
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		order := rng.Perm(len(outcomes))
		acc := NewAccumulator()
		for _, i := range order {
			acc.Add(outcomes[i])
		}
		snap := acc.Snapshot()
		if snap.Jobs != len(outcomes) {
			t.Fatalf("trial %d: snapshot covers %d jobs, want %d", trial, snap.Jobs, len(outcomes))
		}
		if err := snap.Validate(); err != nil {
			t.Fatalf("trial %d: snapshot invalid: %v", trial, err)
		}
		got, err := json.Marshal(snap.Finalize())
		if err != nil {
			t.Fatalf("trial %d: marshal: %v", trial, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: streamed aggregate diverges from oracle\n got: %s\nwant: %s", trial, got, want)
		}
	}
}

// TestAccumulatorIntermediateSnapshotsValid pins the live-view
// contract: every intermediate snapshot is a valid, mergeable partial,
// and job counts grow monotonically.
func TestAccumulatorIntermediateSnapshotsValid(t *testing.T) {
	outcomes, _ := oracleOutcomes(t)
	rng := rand.New(rand.NewSource(99))
	acc := NewAccumulator()
	prev := 0
	for _, i := range rng.Perm(len(outcomes)) {
		acc.Add(outcomes[i])
		snap := acc.Snapshot()
		if err := snap.Validate(); err != nil {
			t.Fatalf("intermediate snapshot after %d adds invalid: %v", prev+1, err)
		}
		if snap.Jobs != prev+1 {
			t.Fatalf("snapshot jobs = %d, want %d", snap.Jobs, prev+1)
		}
		prev = snap.Jobs
	}
}

// TestAccumulatorSnapshotsMerge: snapshots from two accumulators over a
// split of the grid merge and finalize to the oracle bytes — the dist
// coordinator's mid-lease merge path.
func TestAccumulatorSnapshotsMerge(t *testing.T) {
	outcomes, want := oracleOutcomes(t)
	a, b := NewAccumulator(), NewAccumulator()
	for i, o := range outcomes {
		if i%3 == 0 {
			a.Add(o)
		} else {
			b.Add(o)
		}
	}
	merged := a.Snapshot().Merge(b.Snapshot())
	if err := merged.Validate(); err != nil {
		t.Fatalf("merged snapshot invalid: %v", err)
	}
	got, err := json.Marshal(merged.Finalize())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged streamed aggregate diverges from oracle\n got: %s\nwant: %s", got, want)
	}
}

// TestAccumulatorEmptySnapshot: the zero accumulator snapshots to the
// same value PartialOfOutcomes(nil) produces.
func TestAccumulatorEmptySnapshot(t *testing.T) {
	var acc Accumulator
	snap := acc.Snapshot()
	if err := snap.Validate(); err != nil {
		t.Fatalf("empty snapshot invalid: %v", err)
	}
	got, _ := json.Marshal(snap)
	want, _ := json.Marshal(PartialOfOutcomes(nil))
	if !bytes.Equal(got, want) {
		t.Fatalf("empty snapshot %s != empty fold %s", got, want)
	}
}

// TestOnOutcomeSerializedAndComplete: Options.OnOutcome must see every
// job exactly once, serialized (checked by racing a plain counter under
// -race), and feeding an Accumulator from it must reproduce the oracle.
func TestOnOutcomeSerializedAndComplete(t *testing.T) {
	spec := testSpec()
	acc := NewAccumulator()
	seen := map[int]int{}
	sum, err := Run(context.Background(), spec, Options{
		Workers: 4,
		OnOutcome: func(o Outcome, _ Stats) {
			seen[o.Index]++ // unsynchronized on purpose: -race proves serialization
			acc.Add(o)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(sum.Outcomes) {
		t.Fatalf("OnOutcome saw %d distinct jobs, want %d", len(seen), len(sum.Outcomes))
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("job %d delivered %d times", idx, n)
		}
	}
	want, _ := json.Marshal(sum.Aggregate)
	got, _ := json.Marshal(acc.Snapshot().Finalize())
	if !bytes.Equal(got, want) {
		t.Fatalf("OnOutcome-fed accumulator diverges from summary aggregate\n got: %s\nwant: %s", got, want)
	}
}

// TestRunJobsOnOutcome: the lease-shard path delivers OnOutcome too.
func TestRunJobsOnOutcome(t *testing.T) {
	jobs, err := testSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	jobs = jobs[:4]
	var got []int
	outcomes, err := RunJobs(context.Background(), jobs, Options{
		Workers:   2,
		OnOutcome: func(o Outcome, _ Stats) { got = append(got, o.Index) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(outcomes) {
		t.Fatalf("OnOutcome fired %d times for %d jobs", len(got), len(outcomes))
	}
}
