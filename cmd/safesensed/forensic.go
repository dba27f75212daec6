package main

// The anomaly-forensics endpoints: query the capture store that every
// campaign (local or distributed) feeds, fetch one capture's full
// evidence, and replay a capture to re-check the determinism invariant
// against its stored flight timeline.

import (
	"fmt"
	"net/http"
	"strconv"

	"safesense/internal/campaign"
	"safesense/internal/obs"
	"safesense/internal/obs/forensic"
)

// Anomaly-list paging bounds, mirroring the trace endpoint's clamps.
const (
	defaultAnomalyLimit = 100
	maxAnomalyLimit     = 1000
)

// queryInt parses an optional non-negative integer query parameter.
func queryInt(r *http.Request, name string) (int, bool, error) {
	q := r.URL.Query().Get(name)
	if q == "" {
		return 0, false, nil
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 {
		return 0, false, fmt.Errorf("%s must be a non-negative integer, got %q", name, q)
	}
	return n, true, nil
}

// handleAnomalies lists stored captures, most recent first. Filters:
// ?kind= (collision, false_positive, false_negative, latency_outlier,
// manual), ?campaign=, ?attack=, ?spec_hash=; paging via ?limit= and
// ?offset=. The payload carries the total match count before paging so
// clients can page without a second call.
func (s *Server) handleAnomalies(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := defaultAnomalyLimit
	if n, ok, err := queryInt(r, "limit"); err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, err)
		return
	} else if ok {
		limit = min(max(n, 1), maxAnomalyLimit)
	}
	offset := 0
	if n, ok, err := queryInt(r, "offset"); err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, err)
		return
	} else if ok {
		offset = n
	}
	metas, total := s.cfg.Forensic.List(forensic.Query{
		Kind:     q.Get("kind"),
		Campaign: q.Get("campaign"),
		Attack:   q.Get("attack"),
		SpecHash: q.Get("spec_hash"),
		Offset:   offset,
		Limit:    limit,
	})
	obs.WriteJSON(w, http.StatusOK, map[string]any{
		"anomalies": metas,
		"total":     total,
		"offset":    offset,
		"limit":     limit,
	})
}

// handleAnomaly serves one capture's full evidence: the grid point,
// flight timeline, anomaly dumps with their trailing state rings, and
// phase timings.
func (s *Server) handleAnomaly(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	c, ok := s.cfg.Forensic.Get(hash)
	if !ok {
		obs.WriteError(w, r, http.StatusNotFound, fmt.Errorf("no capture %q", hash))
		return
	}
	obs.WriteJSON(w, http.StatusOK, map[string]any{"hash": hash, "capture": c})
}

// handleAnomalyReplay re-runs a capture's grid point from its seed and
// diffs the fresh flight timeline against the stored one. An identical
// report re-proves the determinism invariant; a stale one means the
// capture predates the binary's numerics version; a divergence means the
// binary's behavior changed since capture without a version bump (or the
// store was tampered with) and is the finding worth alarming on.
func (s *Server) handleAnomalyReplay(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	c, ok := s.cfg.Forensic.Get(hash)
	if !ok {
		obs.WriteError(w, r, http.StatusNotFound, fmt.Errorf("no capture %q", hash))
		return
	}
	rep, err := campaign.ReplayDiff(r.Context(), hash, c)
	if err != nil {
		obs.WriteError(w, r, http.StatusInternalServerError, err)
		return
	}
	s.reqLog(r.Context()).Info("capture replayed",
		"hash", hash, "result", rep.Result,
		"stored_events", rep.StoredEvents, "fresh_events", rep.FreshEvents)
	obs.WriteJSON(w, http.StatusOK, rep)
}
