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
// "partial" payload is an Aggregate paced by Cadence; the last one
// (PublishClose) equals the "done" frame's aggregate byte for byte.
// The dist coordinator adds "lease" frames of its own.
const (
	StreamProgress = "progress"
	StreamPartial  = "partial"
	StreamFlight   = "flight"
	StreamDone     = "done"
)

// Cadence paces a campaign's "partial" frames, whose payload is the
// Aggregate of the jobs finished so far: one each time the finished
// count crosses a multiple of max(1, jobs/32), none before the first
// job, and the last one from PublishClose. Both routes use it, so a
// campaign's live view costs O(jobs): at most 33 frames of constant
// size once it has 1024 jobs. Counts may jump (a dist lease completes
// many jobs at once) or dip (an expired lease's live view is dropped);
// only a count above every earlier one can be due, so frame job counts
// never decrease.
type Cadence struct {
	jobs, every, high int
}

// NewCadence paces a campaign of jobs runs.
func NewCadence(jobs int) Cadence {
	return Cadence{jobs: jobs, every: max(1, jobs/32)}
}

// Due records that done jobs have finished and reports whether a
// partial frame should go out now. It is never due at the last job,
// even when a dist lease reports it before completing: the closing
// frame is built from completed work only.
func (c *Cadence) Due(done int) bool {
	done = min(done, c.jobs-1)
	if done <= c.high {
		return false
	}
	prev := c.high
	c.high = done
	return done/c.every > prev/c.every
}

// PublishClose publishes a closing campaign's last frames: a done
// campaign's final "partial" frame — the aggregate itself, so its bytes
// equal the done frame's aggregate — then the "done" frame. A nil hub
// is a no-op.
func PublishClose(hub *stream.Hub, f *DoneFrame) {
	if f.Aggregate != nil && f.Jobs > 0 {
		hub.PublishJSON(f.Campaign, StreamPartial, f.Aggregate)
	}
	hub.PublishJSON(f.Campaign, StreamDone, f)
}

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
