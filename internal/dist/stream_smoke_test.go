package dist

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"safesense/internal/campaign"
	"safesense/internal/obs/stream"
)

// TestStreamSmoke is the CI live-streaming gate (`make stream-smoke`):
// a coordinator and two pull workers shard a 64-job campaign while an
// SSE client follows /v1/dist/campaigns/{id}/stream. Workers report
// mid-lease progress every few milliseconds, so the stream must carry
// monotone progress counters, live aggregates over a growing job count,
// and lease transitions before the terminal event — whose embedded
// aggregate must be byte-identical to the single-node oracle, and to the
// last partial frame.
func TestStreamSmoke(t *testing.T) {
	c := newCluster(t, Config{
		LeaseJobs: 8,
		LeaseTTL:  time.Minute,
		Clock:     newFakeClock().Now,
		Streams:   stream.NewHub(4096),
	})

	spec := testSpec("stream-smoke")
	spec.Attacks = []string{"dos"}
	spec.Onsets = []int{10, 20, 30, 40}
	spec.Replicates = 16 // 4 grid points x 16 seeds = 64 jobs

	sub := c.submit(spec)

	// Attach the SSE follower before any worker starts: with full-ring
	// replay it would catch up anyway, but this proves the live path.
	sres, err := http.Get(c.url + "/v1/dist/campaigns/" + sub.ID + "/stream")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer sres.Body.Close()
	if ct := sres.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	c.startWorkers(2, WorkerConfig{
		ID:               "stream",
		Jobs:             2,
		PollInterval:     5 * time.Millisecond,
		ProgressInterval: 5 * time.Millisecond,
	})

	var (
		dec         = stream.NewDecoder(sres.Body)
		lastDone    = -1
		progress    int
		partials    int
		lastPartial []byte
		partialJobs int
		leases      int
		doneFrame   []byte
	)
	for doneFrame == nil {
		fr, err := dec.Next()
		if err != nil {
			t.Fatalf("decoding frame after %d progress/%d partial/%d lease: %v",
				progress, partials, leases, err)
		}
		switch fr.Event {
		case campaign.StreamProgress:
			var p campaign.ProgressFrame
			if err := json.Unmarshal(fr.Data, &p); err != nil {
				t.Fatalf("progress payload: %v", err)
			}
			if p.Campaign != sub.ID || p.Jobs != sub.Jobs {
				t.Fatalf("progress = %+v, want campaign %s over %d jobs", p, sub.ID, sub.Jobs)
			}
			// The live count folds completed leases with in-flight
			// progress; neither ever runs backwards in a healthy run.
			if p.Done < lastDone {
				t.Fatalf("progress went backwards: %d after %d", p.Done, lastDone)
			}
			lastDone = p.Done
			progress++
		case campaign.StreamPartial:
			var agg campaign.Aggregate
			if err := json.Unmarshal(fr.Data, &agg); err != nil {
				t.Fatalf("partial payload: %v", err)
			}
			if agg.Jobs < partialJobs || agg.Jobs > sub.Jobs {
				t.Fatalf("partial covers %d jobs after %d, campaign has %d", agg.Jobs, partialJobs, sub.Jobs)
			}
			partialJobs, lastPartial = agg.Jobs, fr.Data
			partials++
		case streamTypeLease:
			leases++
		case campaign.StreamDone:
			doneFrame = fr.Data
		}
	}
	c.stop()

	if progress < 2 || partials < 1 || leases < sub.Leases {
		t.Fatalf("stream carried %d progress / %d partial / %d lease frames over %d leases",
			progress, partials, leases, sub.Leases)
	}

	var env struct {
		Aggregate json.RawMessage `json:"aggregate"`
	}
	if err := json.Unmarshal(doneFrame, &env); err != nil {
		t.Fatalf("done payload: %v", err)
	}
	if want := oracleAggregate(t, spec); !bytes.Equal(env.Aggregate, want) {
		t.Fatalf("streamed aggregate diverges from single-node oracle\n got: %s\nwant: %s",
			env.Aggregate, want)
	}
	if !bytes.Equal(lastPartial, env.Aggregate) {
		t.Fatalf("last partial frame differs from the done aggregate\n got: %s\nwant: %s",
			lastPartial, env.Aggregate)
	}

	// The fleet view saw both workers deliver.
	fres, err := http.Get(c.url + "/v1/fleet")
	if err != nil {
		t.Fatalf("GET fleet: %v", err)
	}
	var fleet FleetStatus
	err = json.NewDecoder(fres.Body).Decode(&fleet)
	fres.Body.Close()
	if err != nil {
		t.Fatalf("decode fleet: %v", err)
	}
	delivered := 0
	for _, w := range fleet.Workers {
		if w.LeasesDone > 0 {
			delivered++
		}
	}
	if delivered < 2 {
		t.Fatalf("fleet shows %d delivering worker(s): %+v", delivered, fleet.Workers)
	}
	if fleet.StreamPublished == 0 {
		t.Fatal("fleet reports zero stream events after a streamed campaign")
	}
	t.Logf("stream smoke: %d progress / %d partial / %d lease frames, %d workers, aggregate matches oracle",
		progress, partials, leases, delivered)
}
