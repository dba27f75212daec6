package dist

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"safesense/internal/campaign"
	"safesense/internal/obs"
	obstrace "safesense/internal/obs/trace"
)

// maxDistBodyBytes bounds coordinator-endpoint request bodies. A
// completion for a MaxLeaseJobs shard carries up to 3×65536 samples,
// which serializes to a few megabytes; 16 MiB leaves headroom without
// letting a hostile worker stream gigabytes.
const maxDistBodyBytes = 16 << 20

// Register mounts the coordinator's endpoints on mux:
//
//	POST /v1/dist/campaigns             submit a spec for distributed execution
//	GET  /v1/dist/campaigns/{id}        status: lease table, per-worker progress,
//	                                    forwarded flight events, summary when done
//	GET  /v1/dist/campaigns/{id}/stream live SSE feed: progress, the live
//	                                    aggregate over completed and in-flight
//	                                    jobs (every jobs/32), flight events, lease
//	                                    transitions, and a terminal "done" event
//	                                    carrying the final aggregate; supports
//	                                    Last-Event-ID resume
//	GET  /v1/fleet                      fleet view: worker liveness, throughput,
//	                                    per-campaign lease counts, hub health
//	POST /v1/dist/lease                 worker pull: acquire the next lease (204
//	                                    when no work is available)
//	POST /v1/dist/lease/progress        heartbeat: extend a held lease and
//	                                    stream its partial snapshot (410 when
//	                                    the lease is lost)
//	POST /v1/dist/lease/complete        deliver a shard's partial aggregate
//
// The handlers are transport-thin: strict bounded decoding, then the
// coordinator methods. Mounted under safesensed's observability
// middleware they inherit request tracing and metrics like every other
// route.
func (c *Coordinator) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/dist/campaigns", c.handleSubmit)
	mux.HandleFunc("GET /v1/dist/campaigns/{id}", c.handleStatus)
	mux.HandleFunc("GET /v1/dist/campaigns/{id}/stream", c.handleStream)
	mux.HandleFunc("GET /v1/fleet", c.handleFleet)
	mux.HandleFunc("POST /v1/dist/lease", c.handleAcquire)
	mux.HandleFunc("POST /v1/dist/lease/progress", c.handleProgress)
	mux.HandleFunc("POST /v1/dist/lease/complete", c.handleComplete)
}

// decodeRequest reads the bounded request body and runs decode over it.
// On failure it writes the error reply (413 for an oversized body, 400
// for any other read or decode failure) and returns ok false.
func decodeRequest[T any](w http.ResponseWriter, r *http.Request, decode func([]byte) (T, error)) (req T, ok bool) {
	r.Body = http.MaxBytesReader(w, r.Body, maxDistBodyBytes)
	data, err := io.ReadAll(r.Body)
	if err != nil {
		obs.WriteError(w, r, obs.BodyStatus(err), fmt.Errorf("dist: reading request body: %w", err))
		return req, false
	}
	if req, err = decode(data); err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, err)
		return req, false
	}
	return req, true
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeRequest(w, r, DecodeSubmit)
	if !ok {
		return
	}
	// The campaign outlives the request; its trace root inherits the
	// submitting request's ID so the submitter can follow the fan-out.
	resp, err := c.Submit(req, obstrace.ID(r.Context()))
	if err != nil {
		obs.WriteError(w, r, http.StatusServiceUnavailable, err)
		return
	}
	obs.WriteJSON(w, http.StatusAccepted, resp)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := c.CampaignStatus(id)
	if !ok {
		obs.WriteError(w, r, http.StatusNotFound, fmt.Errorf("dist: no campaign %q", id))
		return
	}
	obs.WriteJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleAcquire(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeRequest(w, r, DecodeAcquire)
	if !ok {
		return
	}
	lease, ok := c.Acquire(req.WorkerID)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	obs.WriteJSON(w, http.StatusOK, lease)
}

func (c *Coordinator) handleProgress(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeRequest(w, r, DecodeProgress)
	if !ok {
		return
	}
	if err := c.Progress(req); err != nil {
		// 410 tells the worker its lease is gone, so it stops the run;
		// anything else is a snapshot that does not fit the shard.
		status := http.StatusBadRequest
		if errors.Is(err, errLeaseLost) {
			status = http.StatusGone
		}
		obs.WriteError(w, r, status, err)
		return
	}
	obs.WriteJSON(w, http.StatusOK, struct{}{})
}

// handleStream serves the campaign's live SSE feed through the shared
// campaign.ServeStream: one synthesized terminal frame once the
// campaign is done, live frames with Last-Event-ID replay until then.
func (c *Coordinator) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	terminal, ok := c.terminalFrame(id)
	if !ok {
		obs.WriteError(w, r, http.StatusNotFound, fmt.Errorf("dist: no campaign %q", id))
		return
	}
	if c.cfg.Streams == nil {
		obs.WriteError(w, r, http.StatusNotImplemented, fmt.Errorf("dist: streaming disabled on this coordinator"))
		return
	}
	campaign.ServeStream(w, r, c.cfg.Streams, id, terminal)
}

func (c *Coordinator) handleFleet(w http.ResponseWriter, _ *http.Request) {
	// Fleet is a read-only snapshot; no body to decode.
	obs.WriteJSON(w, http.StatusOK, c.Fleet())
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeRequest(w, r, DecodeComplete)
	if !ok {
		return
	}
	resp, err := c.Complete(req)
	if err != nil {
		obs.WriteError(w, r, http.StatusConflict, err)
		return
	}
	obs.WriteJSON(w, http.StatusOK, resp)
}
