package sim

// The flight recorder captures the *sequence of moments* a run is really
// about — challenge instants, CRA detections, the switch to RLS
// estimates, recovery, collisions — as structured domain events stamped
// with the timestep k, plus a short ring of recent per-step state that is
// dumped whenever an anomaly (collision, challenge-instant false
// positive/negative) occurs. Events append to a preallocated per-run
// buffer and the state ring is a fixed array: the common no-event
// timestep costs one struct store — no locks, no allocation.

// Flight-recorder event kinds, in the order a textbook defended run
// produces them.
const (
	// EventChallenge marks a challenge instant: the radar transmitted
	// nothing at this step. Value is the receiver output power (W).
	EventChallenge = "challenge"
	// EventCRAFlagged marks the step the CRA detector first flagged an
	// attack. Value is the receiver power that tripped the threshold.
	EventCRAFlagged = "cra_flagged"
	// EventCRACleared marks a challenge instant that read quiet again,
	// declaring the attack over.
	EventCRACleared = "cra_cleared"
	// EventRLSTakeover marks the step RLS free-run estimates start
	// replacing the measurement channel (Algorithm 2 line 11).
	EventRLSTakeover = "rls_takeover"
	// EventRLSRelease marks the step trusted measurements resume (or the
	// end of a run that finished while still estimating). Value is the
	// number of free-run estimates delivered.
	EventRLSRelease = "rls_release"
	// EventGapExceedance marks an estimate-vs-truth distance error
	// crossing GapExceedanceM while estimating. Value is the error (m);
	// one event per exceedance episode.
	EventGapExceedance = "gap_exceedance"
	// EventCollision marks the first step the leader-follower gap
	// reached zero. Value is the gap (m, <= 0).
	EventCollision = "collision"
	// EventEstimateFault marks the step a run ended on a predictor fault:
	// the RLS filter rejected a trusted measurement, or a free-run
	// estimate came out non-finite (ErrNonFiniteEstimate). Detail says
	// which.
	EventEstimateFault = "estimate_fault"
)

// Anomaly kinds attached to state-ring dumps.
const (
	// AnomalyCollision is a gap <= 0 step.
	AnomalyCollision = "collision"
	// AnomalyFalsePositive is a detection at a challenge instant with no
	// attack physically active.
	AnomalyFalsePositive = "false_positive"
	// AnomalyFalseNegative is a quiet-reading challenge instant while an
	// attack was physically active (the fast adversary's signature).
	AnomalyFalseNegative = "false_negative"
)

// GapExceedanceM is the estimate-vs-truth distance error (m) above which
// the recorder logs a gap_exceedance event. The paper's worst reported
// recovery error is ~1 m; 5 m flags estimates drifting toward unsafe.
const GapExceedanceM = 5.0

// stateRingCap is how many trailing timesteps an anomaly dump carries.
const stateRingCap = 32

// maxAnomalyDumps bounds Result.Anomalies so a pathological run (e.g.
// the fast adversary missing every challenge) cannot grow it per-step.
const maxAnomalyDumps = 8

// FlightEvent is one structured domain event, stamped with timestep K.
type FlightEvent struct {
	K      int     `json:"k"`
	Kind   string  `json:"kind"`
	Value  float64 `json:"value,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

// StepState is one timestep's closed-loop snapshot, as kept in the
// recorder's last-N ring and dumped with anomalies.
type StepState struct {
	K int `json:"k"`
	// GapM / RelVelMps are ground truth.
	GapM      float64 `json:"gap_m"`
	RelVelMps float64 `json:"rel_vel_mps"`
	// MeasuredM is the (possibly corrupted) radar range; UsedM is the
	// value actually delivered to the controller (measurement, held, or
	// RLS estimate).
	MeasuredM float64 `json:"measured_m"`
	UsedM     float64 `json:"used_m"`
	// FollowerMps / LeaderMps are the vehicle speeds.
	FollowerMps float64 `json:"follower_mps"`
	LeaderMps   float64 `json:"leader_mps"`
	// UnderAttack is the CRA detector's belief at this step.
	UnderAttack bool `json:"under_attack,omitempty"`
}

// AnomalyDump is the recorder's state ring at the moment an anomaly
// occurred: the last-N timesteps, oldest first, ending at step K.
type AnomalyDump struct {
	K      int         `json:"k"`
	Kind   string      `json:"kind"`
	Detail string      `json:"detail,omitempty"`
	States []StepState `json:"states"`
}

// AnomalyKinds returns the distinct anomaly kinds among the result's
// dumps, in first-occurrence order — the capture-reason list the
// forensic store indexes by. Deterministic: no map is involved.
func (r *Result) AnomalyKinds() []string {
	var kinds []string
	for _, a := range r.Anomalies {
		seen := false
		for _, k := range kinds {
			if k == a.Kind {
				seen = true
				break
			}
		}
		if !seen {
			kinds = append(kinds, a.Kind)
		}
	}
	return kinds
}

// flightRecorder is the run's event and state recorder, held by a Runner
// and reset per run. It is owned by one Run goroutine; nothing is shared.
type flightRecorder struct {
	k      int // current timestep, stamped onto emitted events
	events []FlightEvent

	// sink, when non-nil, sees every emitted event live (in addition to
	// the events buffer). The recorder calls it synchronously on the run
	// goroutine; FlightSink's contract keeps it non-blocking.
	sink FlightSink

	ring  [stateRingCap]StepState
	ringN int // total steps recorded (ring head = ringN % cap)

	anomalies []AnomalyDump
	inExceed  bool

	// pending holds anomalies flagged mid-step; they are dumped after the
	// step's state lands in the ring, so the dump includes the anomalous
	// step itself. Fixed-size: at most a detector anomaly plus a
	// collision can coincide on one step.
	pending  [2]AnomalyDump
	npending int
}

// flightEventPrealloc sizes the event buffer for the common case: the
// paper schedule has ~10 challenges plus a handful of transitions, so 32
// covers a typical run without growing.
const flightEventPrealloc = 32

// reset empties the recorder for a new run and installs the run's live
// sink (nil for none). The event buffer is kept; anomaly dumps start a
// new list, so a finished run's dumps stay its own.
func (fr *flightRecorder) reset(sink FlightSink) {
	events := fr.events[:0]
	if events == nil {
		events = make([]FlightEvent, 0, flightEventPrealloc)
	}
	*fr = flightRecorder{events: events, sink: sink}
}

// emit appends one event stamped with the current step.
//
//safesense:hotpath
func (fr *flightRecorder) emit(kind string, value float64, detail string) {
	ev := FlightEvent{K: fr.k, Kind: kind, Value: value, Detail: detail}
	fr.events = append(fr.events, ev)
	if fr.sink != nil {
		// The FlightSink contract (sink.go) already passes ev by value
		// through an interface method — the dispatch itself does not box,
		// and sinks that buffer or encode (follow mode's JSON encoder)
		// pay their allocations outside the recorder's budget, on an
		// explicitly opted-in path.
		//safesense:allow hotpathalloc sink implementations own their allocation budget; follow-mode encoding is opt-in
		fr.sink.FlightEvent(ev)
	}
}

// record stores this step's state into the ring (overwriting the oldest
// slot once full).
//
//safesense:hotpath
func (fr *flightRecorder) record(st StepState) {
	fr.ring[fr.ringN%stateRingCap] = st
	fr.ringN++
}

// flagAnomaly queues an anomaly for dumping at the end of the current
// step (after its state is in the ring).
//
//safesense:hotpath
func (fr *flightRecorder) flagAnomaly(kind, detail string) {
	if fr.npending < len(fr.pending) {
		fr.pending[fr.npending] = AnomalyDump{K: fr.k, Kind: kind, Detail: detail}
		fr.npending++
	}
}

// endStep records the step's state and flushes any flagged anomalies.
//
//safesense:hotpath
func (fr *flightRecorder) endStep(st StepState) {
	fr.record(st)
	for i := 0; i < fr.npending; i++ {
		fr.dump(fr.pending[i].Kind, fr.pending[i].Detail)
	}
	fr.npending = 0
}

// dump snapshots the ring into an anomaly record, oldest step first.
func (fr *flightRecorder) dump(kind, detail string) {
	if len(fr.anomalies) >= maxAnomalyDumps {
		return
	}
	n := fr.ringN
	if n > stateRingCap {
		n = stateRingCap
	}
	states := make([]StepState, n)
	start := fr.ringN - n
	for i := 0; i < n; i++ {
		states[i] = fr.ring[(start+i)%stateRingCap]
	}
	fr.anomalies = append(fr.anomalies, AnomalyDump{K: fr.k, Kind: kind, Detail: detail, States: states})
}
