package dist

import (
	"encoding/json"
	"testing"

	"safesense/internal/campaign"
	"safesense/internal/stats"
)

// FuzzDecodeLease fuzzes every dist wire decoder with one corpus: any
// byte string may arrive at any coordinator endpoint, so all four
// decoders must stay panic-free on the same inputs, and anything they
// accept must satisfy the documented bounds (worker-ID shape, lease
// size, event cap, partial-aggregate consistency) — those bounds are
// what keeps a hostile worker from bloating coordinator state — and
// every accepted partial must finalize to an Aggregate that encodes.
func FuzzDecodeLease(f *testing.F) {
	// Valid messages of each kind seed the corpus.
	spec := campaign.Spec{Steps: 60, Attacks: []string{campaign.AttackDoS}, Onsets: []int{20}}
	if b, err := json.Marshal(SubmitRequest{Spec: spec, LeaseJobs: 8}); err == nil {
		f.Add(b)
	}
	if b, err := json.Marshal(AcquireRequest{WorkerID: "fuzz-worker"}); err == nil {
		f.Add(b)
	}
	// A zero-job heartbeat, the first post of every lease.
	if b, err := json.Marshal(ProgressRequest{LeaseID: "d000001.0.1", WorkerID: "fuzz-worker"}); err == nil {
		f.Add(b)
	}
	partial := campaign.Partial{
		Jobs: 2, Attacked: 2, Detected: 1, EstimatedRuns: 1,
		WorstMinGapM: 3.5, WorstDistErrM: 1.25, WorstVelErrMps: 0.5,
		Latencies: []campaign.LatencyCount{{Steps: 6, Count: 1}},
		DistRMSE:  stats.ExactSum{0.7},
		VelRMSE:   stats.ExactSum{0.2},
	}
	if b, err := json.Marshal(CompleteRequest{
		LeaseID: "d000001.0.1", WorkerID: "fuzz-worker", Partial: partial,
		Events: []campaign.Incident{{Kind: campaign.IncidentCollision, JobIndex: 4, Seed: 99, K: 12, Detail: "dos/onset=20"}},
	}); err == nil {
		f.Add(b)
	}
	if b, err := json.Marshal(ProgressRequest{
		LeaseID: "d000001.0.1", WorkerID: "fuzz-worker", Partial: partial,
	}); err == nil {
		f.Add(b)
	}
	f.Add([]byte(`{"lease_id":"x","worker_id":"w","done":3,"partial":{"jobs":2}}`))
	// Hostile shapes: oversized IDs, unknown fields, truncations,
	// trailing garbage, boundary-breaking counts.
	f.Add([]byte(`{"worker_id":"` + string(make([]byte, MaxWorkerIDLen+1)) + `"}`))
	f.Add([]byte(`{"lease_id":"x","worker_id":"w","partial":{"jobs":999999}}`))
	f.Add([]byte(`{"spec":{"steps":60,"attacks":["dos"]},"lease_jobs":-1}`))
	f.Add([]byte(`{"worker_id":"w"} trailing`))
	f.Add([]byte(`{"unknown_field":true}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeAcquire(data); err == nil {
			if verr := validWorkerID(req.WorkerID); verr != nil {
				t.Fatalf("accepted acquire with invalid worker id: %v", verr)
			}
		}
		if req, err := DecodeSubmit(data); err == nil {
			if req.LeaseJobs < 0 || req.LeaseJobs > MaxLeaseJobs {
				t.Fatalf("accepted submit with lease_jobs %d", req.LeaseJobs)
			}
			if verr := req.Spec.Validate(); verr != nil {
				t.Fatalf("accepted submit with invalid spec: %v", verr)
			}
		}
		if req, err := DecodeProgress(data); err == nil {
			if req.LeaseID == "" || len(req.LeaseID) > maxLeaseIDLen {
				t.Fatalf("accepted progress with out-of-bounds lease id (%d bytes)", len(req.LeaseID))
			}
			if req.Partial.Jobs > MaxLeaseJobs {
				t.Fatalf("accepted progress covering %d jobs", req.Partial.Jobs)
			}
			if verr := req.Partial.Validate(); verr != nil {
				t.Fatalf("accepted progress with inconsistent partial: %v", verr)
			}
			if _, err := json.Marshal(req.Partial.Finalize()); err != nil {
				t.Fatalf("accepted progress whose aggregate does not encode: %v", err)
			}
			if len(req.Events) > MaxCompleteEvents {
				t.Fatalf("accepted progress with %d events", len(req.Events))
			}
		}
		req, err := DecodeComplete(data)
		if err != nil {
			return
		}
		if verr := req.Partial.Validate(); verr != nil {
			t.Fatalf("accepted complete with inconsistent partial: %v", verr)
		}
		if _, err := json.Marshal(req.Partial.Finalize()); err != nil {
			t.Fatalf("accepted complete whose aggregate does not encode: %v", err)
		}
		if req.Partial.Jobs > MaxLeaseJobs {
			t.Fatalf("accepted complete covering %d jobs", req.Partial.Jobs)
		}
		if len(req.Events) > MaxCompleteEvents {
			t.Fatalf("accepted complete with %d events", len(req.Events))
		}
		// Accepted completions must round-trip: re-encode and decode
		// yields the same message (the coordinator checkpoints exactly
		// what it accepted).
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encoding accepted completion: %v", err)
		}
		back, err := DecodeComplete(again)
		if err != nil {
			t.Fatalf("round-trip of accepted completion rejected: %v", err)
		}
		b1, _ := json.Marshal(back)
		if string(b1) != string(again) {
			t.Fatalf("completion round-trip unstable:\n first: %s\nsecond: %s", again, b1)
		}
	})
}
