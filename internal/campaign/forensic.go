package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"safesense/internal/obs/forensic"
	"safesense/internal/sim"
)

// This file is the campaign side of the forensic anomaly store: the
// engine projects any job whose Result carries anomaly dumps (plus,
// optionally, latency outliers) onto a forensic.Capture, and a stored
// capture replays back through the ordinary scenario pipeline so the
// determinism invariant can be checked at runtime.

// Hash returns the spec's content address: the hex SHA-256 of its
// canonical (defaults-applied) JSON. Two specs that expand to the same
// grid hash identically, so captures from resubmissions of one sweep
// dedup fleet-wide.
func (sp Spec) Hash() string {
	b, err := json.Marshal(sp.withDefaults())
	if err != nil {
		// Spec is plain data; Marshal cannot fail on it. Keep the
		// signature ergonomic and make any future regression loud.
		panic(fmt.Sprintf("campaign: marshaling spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// ForensicOptions enables forensic capture on a campaign run.
type ForensicOptions struct {
	// Sink receives each capture; it must be safe for concurrent use —
	// pool workers call it directly. Nil disables capture.
	Sink func(forensic.Capture)
	// SpecHash identifies the sweep; Run fills it from the spec when
	// empty. RunJobs callers (dist workers) must set it themselves —
	// the engine only sees the job sublist.
	SpecHash string
	// LatencyOutlierPct (0 < p < 100) additionally captures jobs whose
	// wall time exceeds this percentile of the jobs observed so far.
	// Any other value disables latency capture. Latency captures are
	// tagged forensic.KindLatencyOutlier and are not deterministic (they
	// depend on machine load), but their content hash still is, so
	// they dedup like any other capture. It also decides phase timing:
	// campaign jobs run timed, and every capture carries the run's
	// phase breakdown, only while latency capture is on (latency
	// captures exist to explain a slow job).
	LatencyOutlierPct float64
}

// latencyWindow is the capturer's recent-job-seconds ring size; the
// percentile is computed over this window.
const latencyWindow = 256

// minLatencySamples is how many jobs must complete before latency
// outliers are flagged — percentiles over a handful of samples would
// capture half the warmup.
const minLatencySamples = 32

// capturer applies ForensicOptions to completed jobs.
type capturer struct {
	o        ForensicOptions
	campaign string

	mu  sync.Mutex
	lat []float64 // ring of recent job wall times (seconds)
	n   int       // total observed
}

// newCapturer builds the capturer of one execution, stamping captures
// with opt.Campaign. Nil when capture is disabled.
func newCapturer(opt Options) *capturer {
	if opt.Forensic == nil || opt.Forensic.Sink == nil {
		return nil
	}
	return &capturer{o: *opt.Forensic, campaign: opt.Campaign, lat: make([]float64, 0, latencyWindow)}
}

// capturesLatency reports whether latency-outlier capture is on: a
// capturer exists and its percentile is in (0, 100). The engine times
// its jobs' phases exactly when this holds, so the two cannot disagree.
func (c *capturer) capturesLatency() bool {
	return c != nil && c.o.LatencyOutlierPct > 0 && c.o.LatencyOutlierPct < 100
}

// latencyOutlier records one job's wall time and reports whether it
// exceeded the configured percentile of the previously-observed
// window.
func (c *capturer) latencyOutlier(d time.Duration) bool {
	if !c.capturesLatency() {
		return false
	}
	s := d.Seconds()
	c.mu.Lock()
	defer c.mu.Unlock()
	outlier := false
	if c.n >= minLatencySamples {
		sorted := append([]float64(nil), c.lat...)
		sort.Float64s(sorted)
		idx := int(float64(len(sorted)-1) * c.o.LatencyOutlierPct / 100)
		outlier = s > sorted[idx]
	}
	if len(c.lat) < latencyWindow {
		c.lat = append(c.lat, s)
	} else {
		c.lat[c.n%latencyWindow] = s
	}
	c.n++
	return outlier
}

// observe projects one completed job onto a capture when it qualifies
// (anomaly dumps, or a latency outlier) and hands it to the sink.
func (c *capturer) observe(j Job, label string, res *sim.Result, jobTime time.Duration) {
	kinds := res.AnomalyKinds()
	if c.latencyOutlier(jobTime) {
		kinds = append(kinds, forensic.KindLatencyOutlier)
	}
	if len(kinds) == 0 {
		return
	}
	fc, err := CaptureOf(c.campaign, c.o.SpecHash, j, label, res, kinds)
	if err != nil {
		return
	}
	c.o.Sink(fc)
}

// CaptureOf builds the forensic capture of one completed job; label is
// j.Point.Label().
func CaptureOf(campaignID, specHash string, j Job, label string, res *sim.Result, kinds []string) (forensic.Capture, error) {
	point, err := json.Marshal(j.Point)
	if err != nil {
		return forensic.Capture{}, fmt.Errorf("campaign: encoding point: %w", err)
	}
	c := forensic.Capture{
		Schema:    forensic.CaptureSchema,
		SpecHash:  specHash,
		Campaign:  campaignID,
		JobIndex:  j.Index,
		Seed:      j.Point.Seed,
		Label:     label,
		Attack:    orDefault(j.Point.Attack, AttackNone),
		Point:     point,
		Kinds:     kinds,
		Flight:    slices.Clone(res.Flight), // res may belong to a reused sim.Runner
		Anomalies: res.Anomalies,
		Numerics:  sim.NumericsVersion,
		Phases:    res.Phases,
	}
	if err := forensic.ValidateCapture(c); err != nil {
		return forensic.Capture{}, err
	}
	return c, nil
}

// ReplayCapture re-runs a capture's grid point deterministically at
// sim.Summary detail (what a capture records) and returns the fresh
// result.
func ReplayCapture(ctx context.Context, c forensic.Capture) (*sim.Result, error) {
	var p Point
	if err := json.Unmarshal(c.Point, &p); err != nil {
		return nil, fmt.Errorf("campaign: decoding captured point: %w", err)
	}
	if p.Seed != c.Seed {
		return nil, fmt.Errorf("campaign: captured point seed %d disagrees with capture seed %d", p.Seed, c.Seed)
	}
	s, err := p.Scenario()
	if err != nil {
		return nil, err
	}
	return sim.RunContext(sim.WithDetail(ctx, sim.Summary), s)
}

// ReplayReport is the outcome of replaying a capture against its
// stored flight timeline — the determinism invariant as an observable.
type ReplayReport struct {
	Hash string `json:"hash"`
	// Result is forensic.ReplayIdentical, ReplayStale or ReplayDiverged.
	Result string `json:"result"`
	// Numerics is the sim.NumericsVersion the capture was taken under.
	Numerics     int                     `json:"numerics"`
	StoredEvents int                     `json:"stored_events"`
	FreshEvents  int                     `json:"fresh_events"`
	Diffs        []forensic.TimelineDiff `json:"diffs,omitempty"`
	// DetectedAt and CollisionAt come from the fresh run (-1 if never).
	DetectedAt  int `json:"detected_at"`
	CollisionAt int `json:"collision_at"`
}

// ReplayDiff replays a capture and diffs the fresh flight timeline
// against the stored one. An identical report means the run reproduced
// bit-for-bit. A diff is stale when the capture was taken under another
// sim.NumericsVersion, which changed the run on purpose; otherwise it
// has diverged, a determinism violation (or a tampered capture) worth
// alarming on.
func ReplayDiff(ctx context.Context, hash string, c forensic.Capture) (ReplayReport, error) {
	res, err := ReplayCapture(ctx, c)
	if err != nil {
		return ReplayReport{}, err
	}
	diffs := forensic.DiffTimelines(c.Flight, res.Flight)
	rep := ReplayReport{
		Hash:         hash,
		Result:       forensic.ReplayIdentical,
		Numerics:     c.NumericsVersion(),
		StoredEvents: len(c.Flight),
		FreshEvents:  len(res.Flight),
		Diffs:        diffs,
		DetectedAt:   res.DetectedAt,
		CollisionAt:  res.CollisionAt,
	}
	switch {
	case len(diffs) == 0:
	case rep.Numerics != sim.NumericsVersion:
		rep.Result = forensic.ReplayStale
	default:
		rep.Result = forensic.ReplayDiverged
	}
	forensic.CountReplay(rep.Result)
	return rep, nil
}
