package dist

import (
	"context"
	"net/http"
	"sync"
	"time"

	"safesense/internal/campaign"
)

// heartbeat keeps a held lease alive and streams its live state to the
// coordinator: an Accumulator folds outcomes as they complete (in any
// order), and one background goroutine posts a snapshot plus the flight
// events discovered since the last delivered post on every tick. Each
// post extends the lease; a 410 means the lease is lost and cancels the
// run. The snapshot is best-effort observability — the authoritative
// partial still travels with the completion, so a dropped post costs
// nothing but freshness.
type heartbeat struct {
	w     *Worker
	lease AcquireResponse
	acc   *campaign.Accumulator

	mu      sync.Mutex
	pending []campaign.Incident // collected but not yet delivered
	total   int                 // events collected over the lease, capped
	sent    map[string]bool     // keys delivered via progress posts
}

func newHeartbeat(w *Worker, lease AcquireResponse) *heartbeat {
	return &heartbeat{w: w, lease: lease, acc: campaign.NewAccumulator(), sent: make(map[string]bool)}
}

// onOutcome is the campaign engine's OnOutcome hook: fold the outcome
// and queue its notable events (the shard's Stats go unused — posts
// carry the accumulator's job count). The engine serializes calls, but
// the heartbeat reads concurrently, so the event queue takes the lock.
func (hb *heartbeat) onOutcome(o campaign.Outcome, _ campaign.Stats) {
	hb.acc.Add(o)
	evs := campaign.Incidents(o)
	if len(evs) == 0 {
		return
	}
	hb.mu.Lock()
	for _, ev := range evs {
		if hb.total >= MaxCompleteEvents {
			break
		}
		hb.pending = append(hb.pending, ev)
		hb.total++
	}
	hb.mu.Unlock()
}

// start posts on every tick until stopped, calling onLost and exiting
// when the coordinator reports the lease lost. The tick is the worker's
// ProgressInterval, tightened to a third of the lease TTL so a couple of
// failed posts do not expire the lease, and never below 10 ms. The
// returned stop function blocks until the goroutine exits, so
// completion never races a late post.
func (hb *heartbeat) start(ctx context.Context, onLost context.CancelFunc) (stop func()) {
	ttl := time.Duration(hb.lease.TTLSeconds * float64(time.Second))
	interval := max(min(hb.w.cfg.ProgressInterval, ttl/3), 10*time.Millisecond)
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
			if hb.post(ctx) {
				hb.w.cfg.Log.Warn("dist lease lost", "lease", hb.lease.LeaseID)
				onLost()
				return
			}
		}
	}()
	return func() {
		close(stopc)
		<-done
	}
}

// post sends one heartbeat and reports whether the coordinator answered
// 410 (lease lost). Any other failure is transient: the event batch
// goes back to the queue so the next tick — or the completion — still
// delivers it.
func (hb *heartbeat) post(ctx context.Context) (lost bool) {
	snap := hb.acc.Snapshot()
	hb.mu.Lock()
	evs := hb.pending
	hb.pending = nil
	hb.mu.Unlock()
	req := ProgressRequest{LeaseID: hb.lease.LeaseID, WorkerID: hb.w.cfg.ID, Partial: snap, Events: evs}
	status, err := hb.w.postJSON(ctx, "/v1/dist/lease/progress", req, nil, hb.lease.TraceID)
	hb.mu.Lock()
	defer hb.mu.Unlock()
	if err != nil || status != http.StatusOK {
		hb.pending = append(evs, hb.pending...)
		if err == nil && status == http.StatusGone {
			return true
		}
		hb.w.cfg.Log.Warn("dist heartbeat failed", "lease", hb.lease.LeaseID, "status", status, "error", err)
		return false
	}
	for _, ev := range evs {
		hb.sent[eventKey(ev)] = true
	}
	return false
}

// remainingEvents filters the completion's grid-order event list down
// to the events no progress post has already delivered, so the
// coordinator's campaign log sees each incident once on the common
// path.
func (hb *heartbeat) remainingEvents(full []campaign.Incident) []campaign.Incident {
	hb.mu.Lock()
	defer hb.mu.Unlock()
	if len(hb.sent) == 0 {
		return full
	}
	var out []campaign.Incident
	for _, ev := range full {
		if !hb.sent[eventKey(ev)] {
			out = append(out, ev)
		}
	}
	return out
}
