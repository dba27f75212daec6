package sim

import (
	"context"
	rt "runtime/trace"
	"time"

	"safesense/internal/obs"
	"safesense/internal/obs/profile"
)

// Phase names for the per-run timing breakdown. These are the label
// values of the safesense_sim_phase_seconds histogram, of the pprof
// "phase" label, and the names printed by safesim -timing.
const (
	PhaseRadarSynthesis = "radar_synthesis"
	PhaseBeatExtraction = "beat_extraction"
	PhaseCRACheck       = "cra_check"
	PhaseRLSEstimation  = "rls_estimation"
	PhaseVehicleStep    = "vehicle_step"
	// PhaseOther is everything between the pipeline phases: setup,
	// trace appends, flight recording and detector bookkeeping. It
	// makes the breakdown add up to the run's wall time.
	PhaseOther = "other"
)

// Phase indexes into the tracker, in PhaseNames order.
const (
	phaseRadarSynthesis = iota
	phaseBeatExtraction
	phaseCRACheck
	phaseRLSEstimation
	phaseVehicleStep
	phaseOther
	numPhases
)

var phaseNames = [numPhases]string{
	PhaseRadarSynthesis, PhaseBeatExtraction,
	PhaseCRACheck, PhaseRLSEstimation, PhaseVehicleStep, PhaseOther,
}

// PhaseNames lists every pipeline phase in execution order, PhaseOther
// last — the label vocabulary of safesense_sim_phase_seconds and of the
// continuous profiler's pprof "phase" label (callers use it as the
// bounded gauge whitelist).
func PhaseNames() []string {
	names := phaseNames
	return names[:]
}

// The tracker's clock seams: clock captures a run's base once, and since
// is the one monotonic read per phase boundary. Timing is reporting
// metadata, never analysis input; routing the reads through these seams
// keeps the determinism lint exact about where wall time enters the
// pipeline and lets tests count the reads.
var (
	clock = time.Now
	since = time.Since
)

// phaseTracker attributes a run's wall time to exactly one phase at a
// time. enter closes the open phase and opens the next with one clock
// read, so back-to-back phases share the read at their boundary and the
// totals add up to the time from start to stop. Each entry also swaps
// the phase's pprof label (when a profile consumer is active) and its
// runtime/trace region (when the execution tracer is on). An untimed
// tracker (a Summary run, see Detail) does all of that but the reads.
type phaseTracker struct {
	timed bool
	base  time.Time
	last  time.Duration // tracker time of the most recent boundary
	cur   int
	done  bool
	total [numPhases]time.Duration
	calls [numPhases]int

	ctx    context.Context
	labels *profile.PhaseLabels // nil when profiling is off
	rtOn   bool
	region *rt.Region
}

// startPhases opens the other phase at the start of a run; an untimed
// tracker makes no clock read. The execution-tracer check is hoisted
// here so a phase boundary costs one branch when tracing is off.
func startPhases(ctx context.Context, timed bool) *phaseTracker {
	t := &phaseTracker{
		timed: timed,
		ctx:   ctx, rtOn: rt.IsEnabled(), cur: phaseOther,
	}
	if profile.Enabled() {
		t.labels = profile.NewPhaseLabels(ctx, phaseNames[:]...)
	}
	t.calls[phaseOther] = 1
	t.labels.Set(phaseOther)
	if t.rtOn {
		t.region = rt.StartRegion(ctx, PhaseOther)
	}
	if t.timed {
		t.base = clock()
	}
	return t
}

// enter closes the open phase and opens phase i.
//
//safesense:hotpath
func (t *phaseTracker) enter(i int) {
	if t.timed {
		now := since(t.base)
		t.total[t.cur] += now - t.last
		t.last = now
	}
	t.cur = i
	t.calls[i]++
	t.labels.Set(i)
	if t.rtOn {
		t.region.End()
		t.region = rt.StartRegion(t.ctx, phaseNames[i])
	}
}

// stop closes the open phase with a final read and restores the
// goroutine's labels. Calls after the first do nothing, so a deferred
// stop covers early error returns.
func (t *phaseTracker) stop() {
	if t.done {
		return
	}
	t.done = true
	if t.timed {
		t.total[t.cur] += since(t.base) - t.last
	}
	t.labels.Unset()
	if t.rtOn {
		t.region.End()
	}
}

var (
	metricRuns = obs.Default().Counter(
		"safesense_sim_runs_total", "Completed simulation runs.")
	metricPhaseSeconds = obs.Default().Histogram(
		"safesense_sim_phase_seconds",
		"Cumulative wall time one simulation run spent in each phase.",
		obs.DefBuckets, "phase")
)

// PhaseTiming reports the cumulative wall time one run spent in a named
// phase and how many times the run entered it.
type PhaseTiming struct {
	Phase   string  `json:"phase"`
	Calls   int     `json:"calls"`
	Seconds float64 `json:"seconds"`
}

// recordPhases projects a stopped tracker onto Result.Phases and the
// process-wide metrics. Phases that never ran (e.g. beat extraction on
// the closed-form pipeline, RLS when undefended) are kept in the
// breakdown with zero calls but not observed into the histogram, so the
// per-phase distributions only contain runs that exercised the phase.
// An untimed run is counted but has no breakdown.
func recordPhases(t *phaseTracker) []PhaseTiming {
	metricRuns.With().Inc()
	if !t.timed {
		return nil
	}
	out := make([]PhaseTiming, numPhases)
	for i, name := range phaseNames {
		sec := t.total[i].Seconds()
		out[i] = PhaseTiming{Phase: name, Calls: t.calls[i], Seconds: sec}
		if t.calls[i] > 0 {
			metricPhaseSeconds.With(name).Observe(sec)
		}
	}
	return out
}

// TotalSeconds sums a phase breakdown: the run's wall time from the
// tracker's start to its stop.
func TotalSeconds(phases []PhaseTiming) float64 {
	var s float64
	for _, p := range phases {
		s += p.Seconds
	}
	return s
}
