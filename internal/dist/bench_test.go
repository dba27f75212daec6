package dist

import (
	"context"
	"testing"

	"safesense/internal/campaign"
	"safesense/internal/obs/stream"
)

// BenchmarkCoordinatorStream drives the 1008-job benchmark grid (two
// leaders x two attacks x three onsets x 84 seeds, in 63 leases of 16
// jobs) through an in-process coordinator with a stream hub: Submit,
// then Acquire and Complete per lease. The shard partials are computed
// once, outside the timer, so an op is the coordinator's own work for
// one campaign. Besides time and allocations per campaign it reports
// the bytes the campaign's stream carried: stream-B/op over every
// frame, partial-B/op over its partial frames.
func BenchmarkCoordinatorStream(b *testing.B) {
	const leaseJobs = 16
	spec := campaign.Spec{
		Name:       "coordinator-stream",
		Steps:      301,
		BaseSeed:   1,
		Replicates: 84,
		Attacks:    []string{campaign.AttackDoS, campaign.AttackDelay},
		Leaders:    []string{campaign.LeaderConst, campaign.LeaderPhased},
		Onsets:     []int{175, 178, 182},
	}
	jobs, err := spec.Expand()
	if err != nil {
		b.Fatal(err)
	}
	outcomes, err := campaign.RunJobs(context.Background(), jobs, campaign.Options{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	var parts []campaign.Partial
	for start := 0; start < len(outcomes); start += leaseJobs {
		parts = append(parts, campaign.PartialOfOutcomes(outcomes[start:min(start+leaseJobs, len(outcomes))]))
	}
	hub := stream.NewHub(4096)
	c := NewCoordinator(Config{LeaseJobs: leaseJobs, Streams: hub})
	var streamBytes, partialBytes int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub, err := c.Submit(SubmitRequest{Spec: spec}, "")
		if err != nil {
			b.Fatal(err)
		}
		for {
			lease, ok := c.Acquire("bench")
			if !ok {
				break
			}
			if _, err := c.Complete(CompleteRequest{LeaseID: lease.LeaseID, WorkerID: "bench", Partial: parts[lease.Shard]}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		for _, ev := range hub.Replay(sub.ID, 0) {
			streamBytes += len(ev.Data)
			if ev.Type == campaign.StreamPartial {
				partialBytes += len(ev.Data)
			}
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(streamBytes)/float64(b.N), "stream-B/op")
	b.ReportMetric(float64(partialBytes)/float64(b.N), "partial-B/op")
}
