package dist

import (
	"context"
	"net/http"
	"sync"
	"time"

	"safesense/internal/campaign"
)

// progressReporter streams a held lease's live state to the
// coordinator: an Accumulator folds outcomes as they complete (in any
// order), and a background loop posts periodic snapshots plus the
// flight events discovered since the last successful post. Everything
// here is best-effort observability — the authoritative partial still
// travels with the completion, so a dropped post costs nothing but
// freshness.
type progressReporter struct {
	w     *Worker
	lease AcquireResponse
	acc   *campaign.Accumulator

	mu      sync.Mutex
	pending []campaign.Incident // collected but not yet delivered
	total   int                 // events collected over the lease, capped
	sent    map[string]bool     // keys delivered via progress posts
	posted  int                 // jobs covered by the last successful post
}

func newProgressReporter(w *Worker, lease AcquireResponse) *progressReporter {
	return &progressReporter{w: w, lease: lease, acc: campaign.NewAccumulator(), sent: make(map[string]bool)}
}

// onOutcome is the campaign engine's OnOutcome hook: fold the outcome
// and queue its notable events (the shard's Stats go unused — progress
// posts carry the accumulator's job count). The engine serializes
// calls, but the posting loop reads concurrently, so the event queue
// takes the lock.
func (pr *progressReporter) onOutcome(o campaign.Outcome, _ campaign.Stats) {
	pr.acc.Add(o)
	evs := campaign.Incidents(o)
	if len(evs) == 0 {
		return
	}
	pr.mu.Lock()
	for _, ev := range evs {
		if pr.total >= MaxCompleteEvents {
			break
		}
		pr.pending = append(pr.pending, ev)
		pr.total++
	}
	pr.mu.Unlock()
}

// loop posts snapshots every interval until stopped. The returned stop
// function blocks until the goroutine exits, so completion never races
// a late post carrying an older snapshot.
func (pr *progressReporter) loop(ctx context.Context, interval time.Duration) (stop func()) {
	done := make(chan struct{})
	stopc := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-stopc:
				return
			case <-ticker.C:
			}
			pr.post(ctx)
		}
	}()
	return func() {
		close(stopc)
		<-done
	}
}

// post sends one snapshot when there is anything new to report. On
// failure the event batch goes back to the queue so the next tick — or
// the completion — still delivers it.
func (pr *progressReporter) post(ctx context.Context) {
	snap := pr.acc.Snapshot()
	pr.mu.Lock()
	evs := pr.pending
	pr.pending = nil
	stale := snap.Jobs == pr.posted
	pr.mu.Unlock()
	if snap.Jobs == 0 || (stale && len(evs) == 0) {
		return
	}
	req := ProgressRequest{
		LeaseID:  pr.lease.LeaseID,
		WorkerID: pr.w.cfg.ID,
		Done:     snap.Jobs,
		Partial:  snap,
		Events:   evs,
	}
	var resp ProgressResponse
	status, err := pr.w.postJSON(ctx, "/v1/dist/lease/progress", req, &resp, pr.lease.TraceID)
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if err != nil || status != http.StatusOK {
		pr.pending = append(evs, pr.pending...)
		return
	}
	pr.posted = snap.Jobs
	for _, ev := range evs {
		pr.sent[eventKey(ev)] = true
	}
}

// remainingEvents filters the completion's grid-order event list down
// to the events no progress post has already delivered, so the
// coordinator's campaign log sees each incident once on the common
// path.
func (pr *progressReporter) remainingEvents(full []campaign.Incident) []campaign.Incident {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if len(pr.sent) == 0 {
		return full
	}
	var out []campaign.Incident
	for _, ev := range full {
		if !pr.sent[eventKey(ev)] {
			out = append(out, ev)
		}
	}
	return out
}
