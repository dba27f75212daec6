package main

import (
	"fmt"
	"net/http"
	"time"

	"safesense/internal/campaign"
	"safesense/internal/obs"
)

// campaignStreamer is a running local sweep's observer: it folds
// outcomes into an Accumulator and publishes its live aggregate as
// "partial" frames on the shared campaign.Cadence, records each job's
// incidents once — into the audit log and onto the stream — as the job
// completes, and mirrors the engine's Stats into the stored entry and
// throttled progress frames. Its hook runs inside the engine's
// serialized progress section, so the accumulator needs no extra
// locking; publishing never blocks by the hub's contract.
type campaignStreamer struct {
	s   *Server
	e   *entry // ID and Jobs are immutable; the rest is guarded by s.mu
	acc *campaign.Accumulator

	// progressEvery throttles progress frames, which are cheap, so they
	// go out often (and always on the final job); partial paces the
	// aggregate frames, which copy and sort the samples, so they go out
	// rarely.
	progressEvery int
	partial       campaign.Cadence
}

// newCampaignStreamer sizes the throttles for the entry's grid.
func newCampaignStreamer(s *Server, e *entry) *campaignStreamer {
	return &campaignStreamer{
		s: s, e: e, acc: campaign.NewAccumulator(),
		progressEvery: max(1, e.Jobs/256),
		partial:       campaign.NewCadence(e.Jobs),
	}
}

// onOutcome is the engine's OnOutcome hook: fold the outcome, record
// its incidents, mirror the Stats into the entry, and publish the
// throttled progress and partial frames.
func (cs *campaignStreamer) onOutcome(o campaign.Outcome, st campaign.Stats) {
	cs.acc.Add(o)
	if incs := campaign.Incidents(o); len(incs) > 0 {
		cs.recordIncidents(incs)
	}
	rps, eta := st.RunsPerSec, st.ETA.Seconds()
	cs.s.mu.Lock()
	cs.e.Done = st.Done
	cs.e.RunsPerSec = rps
	cs.e.ETASeconds = eta
	cs.s.mu.Unlock()
	hub, id, done := cs.s.cfg.Streams, cs.e.ID, st.Done
	if done%cs.progressEvery == 0 || done == cs.e.Jobs {
		hub.PublishJSON(id, campaign.StreamProgress, campaign.ProgressFrame{
			Campaign: id, Status: statusRunning, Jobs: cs.e.Jobs, Done: done,
			RunsPerSec: rps, ETASeconds: eta,
		})
	}
	if cs.partial.Due(done) {
		hub.PublishJSON(id, campaign.StreamPartial, cs.acc.Snapshot().Finalize())
	}
}

// recordIncidents appends one job's incidents to the bounded audit log
// and publishes each as a flight frame, in completion order.
func (cs *campaignStreamer) recordIncidents(incs []campaign.Incident) {
	now := time.Now()
	cs.s.mu.Lock()
	defer cs.s.mu.Unlock()
	for _, inc := range incs {
		ev := CampaignEvent{Time: now, Incident: inc}
		cs.e.addEvent(ev)
		cs.s.cfg.Streams.PublishJSON(cs.e.ID, campaign.StreamFlight, ev)
	}
}

// finish publishes the closing frames: the final partial (a done
// campaign's summary aggregate) and the terminal frame. Callers hold
// s.mu (publishing under the lock is fine — it never blocks).
func (cs *campaignStreamer) finish() {
	campaign.PublishClose(cs.s.cfg.Streams, terminalFrame(cs.e))
}

// terminalFrame builds the "done" payload of a terminal entry. Callers
// hold s.mu.
func terminalFrame(e *entry) *campaign.DoneFrame {
	f := &campaign.DoneFrame{
		Campaign: e.ID, Status: e.Status, Jobs: e.Jobs, Done: e.Done, Error: e.Err,
	}
	if e.Summary != nil {
		f.ElapsedSeconds = e.Summary.ElapsedSeconds
		f.Aggregate = &e.Summary.Aggregate
	}
	return f
}

// handleCampaignStream serves GET /v1/campaigns/{id}/stream, the
// campaign's live SSE feed (progress, partial, flight, done), through
// the shared campaign.ServeStream.
func (s *Server) handleCampaignStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	e := s.campaigns[id]
	var terminal *campaign.DoneFrame
	if e != nil && e.terminal() {
		terminal = terminalFrame(e)
	}
	s.mu.Unlock()
	if e == nil {
		obs.WriteError(w, r, http.StatusNotFound, fmt.Errorf("no campaign %q", id))
		return
	}
	campaign.ServeStream(w, r, s.cfg.Streams, id, terminal)
}
