package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"safesense/internal/obs/stream"
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
//	GET  /v1/dist/campaigns/{id}/stream live SSE feed: progress, merged partials,
//	                                    flight events, lease transitions, and a
//	                                    terminal "done" event carrying the final
//	                                    aggregate; supports Last-Event-ID resume
//	GET  /v1/fleet                      fleet view: worker liveness, throughput,
//	                                    per-campaign lease counts, hub health
//	POST /v1/dist/lease                 worker pull: acquire the next lease (204
//	                                    when no work is available)
//	POST /v1/dist/lease/renew           extend a held lease
//	POST /v1/dist/lease/progress        stream a held lease's partial snapshot
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
	mux.HandleFunc("POST /v1/dist/lease/renew", c.handleRenew)
	mux.HandleFunc("POST /v1/dist/lease/progress", c.handleProgress)
	mux.HandleFunc("POST /v1/dist/lease/complete", c.handleComplete)
}

func distWriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func distWriteError(w http.ResponseWriter, r *http.Request, code int, err error) {
	body := map[string]string{"error": err.Error()}
	if id := obstrace.ID(r.Context()); id != "" {
		body["request_id"] = id
	}
	distWriteJSON(w, code, body)
}

// readBody slurps a bounded request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	r.Body = http.MaxBytesReader(w, r.Body, maxDistBodyBytes)
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, fmt.Errorf("dist: reading request body: %w", err)
	}
	return data, nil
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	data, err := readBody(w, r)
	if err != nil {
		distWriteError(w, r, http.StatusRequestEntityTooLarge, err)
		return
	}
	req, err := DecodeSubmit(data)
	if err != nil {
		distWriteError(w, r, http.StatusBadRequest, err)
		return
	}
	// The campaign outlives the request; its trace root inherits the
	// submitting request's ID so the submitter can follow the fan-out.
	resp, err := c.Submit(req, obstrace.ID(r.Context()))
	if err != nil {
		distWriteError(w, r, http.StatusServiceUnavailable, err)
		return
	}
	distWriteJSON(w, http.StatusAccepted, resp)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := c.CampaignStatus(id)
	if !ok {
		distWriteError(w, r, http.StatusNotFound, fmt.Errorf("dist: no campaign %q", id))
		return
	}
	distWriteJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleAcquire(w http.ResponseWriter, r *http.Request) {
	data, err := readBody(w, r)
	if err != nil {
		distWriteError(w, r, http.StatusRequestEntityTooLarge, err)
		return
	}
	req, err := DecodeAcquire(data)
	if err != nil {
		distWriteError(w, r, http.StatusBadRequest, err)
		return
	}
	lease, ok := c.Acquire(req.WorkerID)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	distWriteJSON(w, http.StatusOK, lease)
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	data, err := readBody(w, r)
	if err != nil {
		distWriteError(w, r, http.StatusRequestEntityTooLarge, err)
		return
	}
	req, err := DecodeRenew(data)
	if err != nil {
		distWriteError(w, r, http.StatusBadRequest, err)
		return
	}
	resp, err := c.Renew(req)
	if err != nil {
		// The lease is gone (completed or reassigned); 410 tells the
		// worker to stop renewing and abandon or finish quietly.
		distWriteError(w, r, http.StatusGone, err)
		return
	}
	distWriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleProgress(w http.ResponseWriter, r *http.Request) {
	data, err := readBody(w, r)
	if err != nil {
		distWriteError(w, r, http.StatusRequestEntityTooLarge, err)
		return
	}
	req, err := DecodeProgress(data)
	if err != nil {
		distWriteError(w, r, http.StatusBadRequest, err)
		return
	}
	resp, err := c.Progress(req)
	if err != nil {
		// Unknown lease or an impossible range: the worker's view of
		// the lease is wrong, so stop posting (progress is best-effort).
		distWriteError(w, r, http.StatusGone, err)
		return
	}
	distWriteJSON(w, http.StatusOK, resp)
}

// handleStream serves the campaign's live SSE feed. A finished
// campaign gets a single synthesized terminal frame (its live "done"
// event may have been evicted from the replay ring long ago); a
// running one subscribes with full-history replay, deduplicated
// against Last-Event-ID when the client is resuming, and ends when the
// terminal event arrives.
func (c *Coordinator) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := c.CampaignStatus(id)
	if !ok {
		distWriteError(w, r, http.StatusNotFound, fmt.Errorf("dist: no campaign %q", id))
		return
	}
	hub := c.cfg.Streams
	if hub == nil {
		distWriteError(w, r, http.StatusNotImplemented, fmt.Errorf("dist: streaming disabled on this coordinator"))
		return
	}
	if st.Status == StatusDone && st.Summary != nil {
		data, err := json.Marshal(streamDone{
			Campaign: st.ID, Jobs: st.Jobs,
			ElapsedSeconds: st.ElapsedSeconds, Aggregate: st.Summary.Aggregate,
		})
		if err != nil {
			distWriteError(w, r, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		_ = stream.EncodeFrame(w, stream.Frame{Event: streamTypeDone, Data: data})
		return
	}
	after, _ := stream.LastEventID(r)
	_ = stream.Serve(w, r, hub, stream.ServeOptions{
		Topic:     id,
		Replay:    true,
		After:     after,
		Keepalive: 15 * time.Second,
		Done:      func(ev *stream.Event) bool { return ev.Type == streamTypeDone },
	})
}

func (c *Coordinator) handleFleet(w http.ResponseWriter, _ *http.Request) {
	// Fleet is a read-only snapshot; no body to decode.
	distWriteJSON(w, http.StatusOK, c.Fleet())
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	data, err := readBody(w, r)
	if err != nil {
		distWriteError(w, r, http.StatusRequestEntityTooLarge, err)
		return
	}
	req, err := DecodeComplete(data)
	if err != nil {
		distWriteError(w, r, http.StatusBadRequest, err)
		return
	}
	resp, err := c.Complete(req)
	if err != nil {
		distWriteError(w, r, http.StatusConflict, err)
		return
	}
	distWriteJSON(w, http.StatusOK, resp)
}
