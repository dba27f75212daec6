package main

import (
	"errors"
	"fmt"
	"net/http"

	"safesense/internal/obs"
	"safesense/internal/obs/profile"
)

// errProfilingDisabled is the 404 body when no capture store is wired
// (the process was started without -profile-interval).
var errProfilingDisabled = errors.New("continuous profiling disabled (start with -profile-interval)")

// ProfilesResponse lists the resident captures, most recent first.
type ProfilesResponse struct {
	Profiles []profile.Capture `json:"profiles"`
	Total    int               `json:"total"`
}

// handleProfiles serves GET /v1/profiles: every resident capture's
// metadata (phase shares included — they are small and precomputed).
func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Profiles == nil {
		obs.WriteError(w, r, http.StatusNotFound, errProfilingDisabled)
		return
	}
	list := s.cfg.Profiles.List()
	obs.WriteJSON(w, http.StatusOK, ProfilesResponse{Profiles: list, Total: len(list)})
}

// handleProfile serves GET /v1/profiles/{id}: the raw pprof bytes,
// ready for `go tool pprof http://.../v1/profiles/<id>`.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Profiles == nil {
		obs.WriteError(w, r, http.StatusNotFound, errProfilingDisabled)
		return
	}
	id := r.PathValue("id")
	meta, raw, ok := s.cfg.Profiles.Get(id)
	if !ok {
		obs.WriteError(w, r, http.StatusNotFound, fmt.Errorf("no profile capture %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", meta.Kind+"-"+shortID(meta.ID)+".pprof"))
	_, _ = w.Write(raw)
}

// shortID abbreviates a content hash for filenames.
func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
