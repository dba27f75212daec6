package campaign

import (
	"encoding/json"
	"fmt"
	"net/http"

	"safesense/internal/obs"
	"safesense/internal/obs/stream"
)

// The campaign wire vocabulary. Local sweeps (safesensed's
// /v1/campaigns) and distributed ones (internal/dist) derive their
// incidents and stream their frames through the definitions below, so
// one client reads both routes.

// Incident kinds: the paper's per-run failure outcomes (§5).
const (
	IncidentCollision     = "collision"
	IncidentFalsePositive = "false_positive"
	IncidentFalseNegative = "false_negative"
)

// Incident is one job's failure outcome, attributed to the job's grid
// index and seed so the run is reproducible from the incident alone.
// JobIndex is always emitted: job 0 is a job like any other.
type Incident struct {
	Kind     string `json:"kind"`
	JobIndex int    `json:"job_index"`
	Seed     int64  `json:"seed,omitempty"`
	K        int    `json:"k,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// MaxEventLog caps a campaign's stored event log on either route; a
// sweep designed to crash every run must not grow the store unboundedly.
const MaxEventLog = 256

// Incidents derives one outcome's incidents: a collision (with its
// timestep) and each kind of detector confusion.
func Incidents(o Outcome) []Incident {
	var incs []Incident
	if o.CollisionAt >= 0 {
		incs = append(incs, Incident{Kind: IncidentCollision,
			JobIndex: o.Index, Seed: o.Point.Seed, K: o.CollisionAt, Detail: o.Label})
	}
	if o.FalsePositives > 0 {
		incs = append(incs, Incident{Kind: IncidentFalsePositive,
			JobIndex: o.Index, Seed: o.Point.Seed,
			Detail: fmt.Sprintf("%s: %d false positives", o.Label, o.FalsePositives)})
	}
	if o.FalseNegatives > 0 {
		incs = append(incs, Incident{Kind: IncidentFalseNegative,
			JobIndex: o.Index, Seed: o.Point.Seed,
			Detail: fmt.Sprintf("%s: %d false negatives", o.Label, o.FalseNegatives)})
	}
	return incs
}

// SSE event types on a campaign's stream topic (the campaign ID). The
// dist coordinator adds "lease" frames of its own.
const (
	StreamProgress = "progress"
	StreamPartial  = "partial"
	StreamFlight   = "flight"
	StreamDone     = "done"
)

// ProgressFrame is the "progress" payload. Each route fills the fields
// it tracks and omits the rest: the local engine reports throughput,
// the dist coordinator reports lease counts (and counts in-flight jobs
// reported mid-lease in Done).
type ProgressFrame struct {
	Campaign   string  `json:"campaign"`
	Status     string  `json:"status"`
	Jobs       int     `json:"jobs"`
	Done       int     `json:"done"`
	RunsPerSec float64 `json:"runs_per_sec,omitempty"`
	ETASeconds float64 `json:"eta_seconds,omitempty"`
	Leases     int     `json:"leases,omitempty"`
	DoneLeases int     `json:"done_leases,omitempty"`
}

// DoneFrame is the terminal "done" payload. Aggregate points at the
// campaign aggregate itself, so its bytes inside the frame equal a
// standalone json.Marshal of it — the stream's byte-identity contract
// with a single-node run of the same spec. A failed or cancelled
// campaign has no aggregate and carries Error instead.
type DoneFrame struct {
	Campaign       string     `json:"campaign"`
	Status         string     `json:"status"`
	Jobs           int        `json:"jobs"`
	Done           int        `json:"done"`
	ElapsedSeconds float64    `json:"elapsed_seconds"`
	Error          string     `json:"error,omitempty"`
	Aggregate      *Aggregate `json:"aggregate,omitempty"`
}

// ServeStream serves GET …/campaigns/{id}/stream on either route. A
// finished campaign (terminal non-nil) gets one synthesized done frame
// without touching the hub: its live events may be long evicted from
// the ring, and subscribing would hang. A running one streams topic
// with full-ring replay after the client's Last-Event-ID, keepalive
// comments (stream.Serve's default 15 s), and closes after its done
// frame.
func ServeStream(w http.ResponseWriter, r *http.Request, hub *stream.Hub, topic string, terminal *DoneFrame) {
	if terminal != nil {
		data, err := json.Marshal(terminal)
		if err != nil {
			obs.WriteError(w, r, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		_ = stream.EncodeFrame(w, stream.Frame{Event: StreamDone, Data: data})
		return
	}
	after, _ := stream.LastEventID(r)
	_ = stream.Serve(w, r, hub, stream.ServeOptions{
		Topic:  topic,
		Replay: true,
		After:  after,
		Done:   func(ev *stream.Event) bool { return ev.Type == StreamDone },
	})
}
