// Package campaign turns the single-scenario simulator of internal/sim
// into a Monte Carlo sweep engine: a declarative Spec expands a parameter
// grid (attack kind × onset × offset × jammer power × challenge schedule ×
// leader profile × replicate seeds) into a deterministic job stream, a
// bounded worker pool executes the jobs concurrently, and the per-run
// results are aggregated into campaign statistics — detection-latency
// percentiles and histogram, challenge-confusion totals, collision rate,
// worst-case and RMSE gap error, and throughput. The paper validates CRA +
// RLS on four hand-picked scenarios (Figs 2–3); a campaign answers the
// question those figures cannot: over thousands of sampled attacks, how is
// detection latency distributed and how large can the recovery error get?
//
// Everything in the Spec is plain data (JSON-serializable), so the same
// type is the wire format of the safesensed HTTP service.
package campaign

import (
	"fmt"
	"strconv"

	"safesense/internal/attack"
	"safesense/internal/prbs"
	"safesense/internal/sim"
)

// Attack kind names accepted by a Spec (sim.AttackKind string forms).
const (
	AttackNone          = "none"
	AttackDoS           = "dos"
	AttackDelay         = "delay"
	AttackFastAdversary = "fast-adversary"
)

// Leader profile names accepted by a Spec.
const (
	LeaderConst  = "const"  // Figure 2: constant -0.1082 m/s^2
	LeaderPhased = "phased" // Figure 3: decelerate then accelerate
)

// ScheduleSpec selects a challenge schedule declaratively.
type ScheduleSpec struct {
	// Kind is "paper" (the pinned Figure 2/3 schedule) or "lfsr" (a
	// pseudo-random LFSR schedule). Empty means "paper".
	Kind string `json:"kind,omitempty"`
	// Width sets the LFSR challenge rate to ~2^-Width (lfsr only;
	// zero means 4, i.e. a ~6% challenge rate).
	Width int `json:"width,omitempty"`
	// RegLen is the LFSR register length (lfsr only; zero means 12).
	RegLen int `json:"reg_len,omitempty"`
	// Seed seeds the LFSR (lfsr only; zero means 1).
	Seed uint32 `json:"seed,omitempty"`
}

// appendLabel appends the schedule axis value of a job label: "paper",
// or "lfsr(w=W,r=R,s=S)" with defaults applied.
func (sc ScheduleSpec) appendLabel(b []byte) []byte {
	if sc.Kind == "" || sc.Kind == "paper" {
		return append(b, "paper"...)
	}
	sc = sc.withDefaults()
	b = strconv.AppendInt(append(b, "lfsr(w="...), int64(sc.Width), 10)
	b = strconv.AppendInt(append(b, ",r="...), int64(sc.RegLen), 10)
	b = strconv.AppendUint(append(b, ",s="...), uint64(sc.Seed), 10)
	return append(b, ')')
}

func (sc ScheduleSpec) withDefaults() ScheduleSpec {
	if sc.Width == 0 {
		sc.Width = 4
	}
	if sc.RegLen == 0 {
		sc.RegLen = 12
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	return sc
}

// paperSchedule is the one paper schedule every "paper" job shares: a
// FixedSchedule is immutable once built.
var paperSchedule = prbs.PaperFigureSchedule()

// Build materializes the schedule for a horizon of steps. Every "paper"
// build returns the same shared, immutable *prbs.FixedSchedule; an
// "lfsr" build is a fresh schedule.
func (sc ScheduleSpec) Build(steps int) (prbs.Schedule, error) {
	switch sc.Kind {
	case "", "paper":
		return paperSchedule, nil
	case "lfsr":
		d := sc.withDefaults()
		return prbs.NewLFSRSchedule(d.RegLen, d.Seed, d.Width, steps)
	default:
		return nil, fmt.Errorf("campaign: unknown schedule kind %q", sc.Kind)
	}
}

// Spec declares a campaign: the cartesian product of the axes below, with
// Replicates independently-seeded runs per grid point. Axes irrelevant to
// an attack kind are skipped for that kind (a "none" job ignores onsets,
// offsets, and powers; a "dos" job ignores offsets; a "delay" job ignores
// jammer powers), so the grid never multiplies dead dimensions.
type Spec struct {
	// Name labels the campaign.
	Name string `json:"name,omitempty"`
	// Steps is the per-run horizon (zero means the paper's 301).
	Steps int `json:"steps,omitempty"`
	// BaseSeed roots the deterministic per-job seed derivation (zero
	// means 1). Two campaigns with the same Spec produce identical
	// results regardless of worker count.
	BaseSeed int64 `json:"base_seed,omitempty"`
	// Replicates is the number of seeds per grid point (zero means 1).
	Replicates int `json:"replicates,omitempty"`
	// Defended disables the CRA + RLS pipeline when false. Nil means
	// defended (the paper's configuration).
	Defended *bool `json:"defended,omitempty"`
	// SignalLevel selects the high-fidelity dechirped-sweep pipeline.
	SignalLevel bool `json:"signal_level,omitempty"`

	// Attacks lists the attack kinds to sweep (empty means ["dos"]).
	Attacks []string `json:"attacks,omitempty"`
	// Leaders lists the leader profiles (empty means ["const"]).
	Leaders []string `json:"leaders,omitempty"`
	// Schedules lists the challenge schedules (empty means the paper's).
	Schedules []ScheduleSpec `json:"schedules,omitempty"`
	// Onsets lists attack onset steps (empty means [182], the paper's).
	Onsets []int `json:"onsets,omitempty"`
	// OffsetsM lists spoofing distance offsets in meters for delay and
	// fast-adversary attacks (empty means [6], the paper's).
	OffsetsM []float64 `json:"offsets_m,omitempty"`
	// JammerPowersMW lists DoS jammer peak powers in milliwatts (empty
	// means [100], the paper's).
	JammerPowersMW []float64 `json:"jammer_powers_mw,omitempty"`
}

// MaxSteps bounds the per-run horizon a spec or point may request. The
// paper's runs are 301 steps; schedules materialize O(steps) state, so
// without a ceiling a single JSON body with a nine-digit "steps" would
// make validation itself allocate gigabytes before any policy check
// could reject it.
const MaxSteps = 1 << 20

// maxGridJobs caps the expanded grid size NumJobs will report. The cap
// exists for arithmetic safety (the axis product cannot overflow), not
// as an execution policy — safesensed applies its own much lower
// MaxJobs limit on top.
const maxGridJobs = int64(1) << 31

// withDefaults fills the zero-value axes.
func (sp Spec) withDefaults() Spec {
	if sp.Steps == 0 {
		sp.Steps = 301
	}
	if sp.BaseSeed == 0 {
		sp.BaseSeed = 1
	}
	if sp.Replicates == 0 {
		sp.Replicates = 1
	}
	if len(sp.Attacks) == 0 {
		sp.Attacks = []string{AttackDoS}
	}
	if len(sp.Leaders) == 0 {
		sp.Leaders = []string{LeaderConst}
	}
	if len(sp.Schedules) == 0 {
		sp.Schedules = []ScheduleSpec{{Kind: "paper"}}
	}
	if len(sp.Onsets) == 0 {
		sp.Onsets = []int{182}
	}
	if len(sp.OffsetsM) == 0 {
		sp.OffsetsM = []float64{6}
	}
	if len(sp.JammerPowersMW) == 0 {
		sp.JammerPowersMW = []float64{100}
	}
	return sp
}

// defended reports the effective Defended flag.
func (sp Spec) defended() bool { return sp.Defended == nil || *sp.Defended }

// Validate checks the spec without expanding it.
func (sp Spec) Validate() error {
	d := sp.withDefaults()
	if d.Steps < 1 {
		return fmt.Errorf("campaign: steps must be >= 1, got %d", d.Steps)
	}
	if d.Steps > MaxSteps {
		return fmt.Errorf("campaign: steps %d exceeds the maximum of %d", d.Steps, MaxSteps)
	}
	if d.Replicates < 1 {
		return fmt.Errorf("campaign: replicates must be >= 1, got %d", d.Replicates)
	}
	for _, a := range d.Attacks {
		switch a {
		case AttackNone, AttackDoS, AttackDelay, AttackFastAdversary:
		default:
			return fmt.Errorf("campaign: unknown attack kind %q", a)
		}
	}
	for _, l := range d.Leaders {
		if l != LeaderConst && l != LeaderPhased {
			return fmt.Errorf("campaign: unknown leader profile %q", l)
		}
	}
	for _, sc := range d.Schedules {
		if _, err := sc.Build(d.Steps); err != nil {
			return err
		}
	}
	for _, k := range d.Onsets {
		if k < 0 || k >= d.Steps {
			return fmt.Errorf("campaign: onset %d outside horizon [0, %d)", k, d.Steps)
		}
	}
	for _, m := range d.OffsetsM {
		if m <= 0 {
			return fmt.Errorf("campaign: spoofing offset must be positive, got %g m", m)
		}
	}
	for _, p := range d.JammerPowersMW {
		if p <= 0 {
			return fmt.Errorf("campaign: jammer power must be positive, got %g mW", p)
		}
	}
	return nil
}

// Point is one fully-resolved grid point: everything needed to build one
// sim.Scenario. It is the single-run request format of the safesensed
// service as well.
type Point struct {
	Attack      string       `json:"attack"`
	Leader      string       `json:"leader"`
	Schedule    ScheduleSpec `json:"schedule"`
	Onset       int          `json:"onset"`
	OffsetM     float64      `json:"offset_m,omitempty"`
	JammerMW    float64      `json:"jammer_mw,omitempty"`
	Steps       int          `json:"steps"`
	Seed        int64        `json:"seed"`
	Defended    bool         `json:"defended"`
	SignalLevel bool         `json:"signal_level,omitempty"`
}

// Scenario builds the sim.Scenario for the point, named by its Label.
// Each call constructs fresh profile values; the paper schedule is the
// one immutable value concurrent runs share (ScheduleSpec.Build).
func (p Point) Scenario() (sim.Scenario, error) { return p.scenario(p.Label()) }

// scenario is Scenario with the label already built, so a campaign job
// renders it once for its span, scenario name, outcome and capture.
func (p Point) scenario(label string) (sim.Scenario, error) {
	var s sim.Scenario
	switch p.Leader {
	case LeaderConst, "":
		s = sim.Fig2aDoS()
	case LeaderPhased:
		s = sim.Fig3aDoS()
	default:
		return sim.Scenario{}, fmt.Errorf("campaign: unknown leader profile %q", p.Leader)
	}
	steps := p.Steps
	if steps == 0 {
		steps = 301
	}
	if steps < 1 || steps > MaxSteps {
		return sim.Scenario{}, fmt.Errorf("campaign: steps %d outside [1, %d]", steps, MaxSteps)
	}
	sched, err := p.Schedule.Build(steps)
	if err != nil {
		return sim.Scenario{}, err
	}
	s.Steps = steps
	s.Schedule = sched
	s.Seed = p.Seed
	s.Defended = p.Defended
	s.SignalLevel = p.SignalLevel
	s.Name = label

	window := attack.Window{Start: p.Onset, End: steps - 1}
	switch p.Attack {
	case AttackNone, "":
		s.Attack = sim.AttackSpec{Kind: sim.NoAttack}
	case AttackDoS:
		j := attack.PaperJammer()
		if p.JammerMW > 0 {
			j.PeakPowerW = p.JammerMW * 1e-3
		}
		s.Attack = sim.AttackSpec{Kind: sim.DoSAttack, Window: window, Jammer: j}
	case AttackDelay:
		s.Attack = sim.AttackSpec{Kind: sim.DelayAttack, Window: window, OffsetM: p.offset()}
	case AttackFastAdversary:
		s.Attack = sim.AttackSpec{Kind: sim.FastAdversaryAttack, Window: window, OffsetM: p.offset()}
	default:
		return sim.Scenario{}, fmt.Errorf("campaign: unknown attack kind %q", p.Attack)
	}
	return s, nil
}

func (p Point) offset() float64 {
	if p.OffsetM > 0 {
		return p.OffsetM
	}
	return 6
}

// paperJammerMW is the power of the jammer a DoS point with no
// JammerMW runs, in mW.
var paperJammerMW = attack.PaperJammer().PeakPowerW * 1e3

// jammerMW is the jammer power scenario resolves for a DoS point:
// JammerMW when positive, else the paper jammer's.
func (p Point) jammerMW() float64 {
	if p.JammerMW > 0 {
		return p.JammerMW
	}
	return paperJammerMW
}

// Label renders a human-readable point identifier, e.g.
// "dos/const/paper/onset=182/jam=100mW/seed=1". A DoS point's label
// carries the jammer power the run uses, so a point that leaves
// JammerMW unset reads jam=100mW. Numbers print as fmt's %d and %g
// would; the label is built on the stack and allocated once.
func (p Point) Label() string {
	var buf [128]byte
	b := append(buf[:0], orDefault(p.Attack, AttackNone)...)
	b = append(append(b, '/'), orDefault(p.Leader, LeaderConst)...)
	b = p.Schedule.appendLabel(append(b, '/'))
	switch p.Attack {
	case AttackDoS:
		b = strconv.AppendInt(append(b, "/onset="...), int64(p.Onset), 10)
		b = append(strconv.AppendFloat(append(b, "/jam="...), p.jammerMW(), 'g', -1, 64), "mW"...)
	case AttackDelay, AttackFastAdversary:
		b = strconv.AppendInt(append(b, "/onset="...), int64(p.Onset), 10)
		b = append(strconv.AppendFloat(append(b, "/off="...), p.OffsetM, 'g', -1, 64), 'm')
	}
	b = strconv.AppendInt(append(b, "/seed="...), p.Seed, 10)
	return string(b)
}

func orDefault(s, d string) string {
	if s == "" {
		return d
	}
	return s
}

// Job is one unit of campaign work.
type Job struct {
	// Index is the job's position in the expanded grid; it orders the
	// outcome slice so results are independent of execution order.
	Index int `json:"index"`
	// Replicate numbers the seed replicate at this grid point (0-based).
	Replicate int `json:"replicate"`
	// Point resolves to the scenario.
	Point Point `json:"point"`
}

// Expand enumerates the grid in a fixed order: leader → schedule → attack →
// onset → (power | offset) → replicate. Axes irrelevant to an attack kind
// collapse to a single iteration.
func (sp Spec) Expand() ([]Job, error) {
	// NumJobs both validates and applies the grid-size cap, so Expand
	// can never be asked to build an absurd or overflowing job list.
	if _, err := sp.NumJobs(); err != nil {
		return nil, err
	}
	d := sp.withDefaults()
	var jobs []Job
	emit := func(p Point) {
		for r := 0; r < d.Replicates; r++ {
			idx := len(jobs)
			p := p
			p.Seed = DeriveSeed(d.BaseSeed, idx)
			jobs = append(jobs, Job{Index: idx, Replicate: r, Point: p})
		}
	}
	for _, leader := range d.Leaders {
		for _, sched := range d.Schedules {
			for _, atk := range d.Attacks {
				base := Point{
					Attack:      atk,
					Leader:      leader,
					Schedule:    sched,
					Steps:       d.Steps,
					Defended:    d.defended(),
					SignalLevel: d.SignalLevel,
				}
				switch atk {
				case AttackNone:
					emit(base)
				case AttackDoS:
					for _, onset := range d.Onsets {
						for _, mw := range d.JammerPowersMW {
							p := base
							p.Onset = onset
							p.JammerMW = mw
							emit(p)
						}
					}
				default: // delay, fast-adversary
					for _, onset := range d.Onsets {
						for _, off := range d.OffsetsM {
							p := base
							p.Onset = onset
							p.OffsetM = off
							emit(p)
						}
					}
				}
			}
		}
	}
	return jobs, nil
}

// NumJobs returns the expanded grid size without building the jobs.
// Grids beyond maxGridJobs are rejected outright, keeping the count
// arithmetic overflow-free no matter what a JSON body claims for axis
// sizes or replicate counts.
func (sp Spec) NumJobs() (int, error) {
	if err := sp.Validate(); err != nil {
		return 0, err
	}
	d := sp.withDefaults()
	tooLarge := fmt.Errorf("campaign: grid expands beyond %d jobs", maxGridJobs)
	perAttack := int64(0)
	for _, atk := range d.Attacks {
		switch atk {
		case AttackNone:
			perAttack++
		case AttackDoS:
			perAttack += int64(len(d.Onsets)) * int64(len(d.JammerPowersMW))
		default:
			perAttack += int64(len(d.Onsets)) * int64(len(d.OffsetsM))
		}
		if perAttack > maxGridJobs {
			return 0, tooLarge
		}
	}
	total := perAttack
	for _, f := range []int64{int64(len(d.Leaders)), int64(len(d.Schedules)), int64(d.Replicates)} {
		if total > maxGridJobs/f {
			return 0, tooLarge
		}
		total *= f
	}
	return int(total), nil
}

// DeriveSeed maps (base seed, job index) to the per-job scenario seed with
// a splitmix64 finalizer: well-spread over int64 and — critically — a pure
// function of the spec, so campaign results never depend on worker
// scheduling. The noise source keeps math/rand's seed space: it reduces a
// seed mod 2^31−1 (see noise.NewSource), so two jobs whose seeds agree
// mod 2^31−1 draw the same noise. A J-job grid expects about J²/2^32 such
// pairs: 2.4e-4 at 1,008 jobs, one at about 65,000.
func DeriveSeed(base int64, index int) int64 {
	z := uint64(base) ^ (uint64(index+1) * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1 // math/rand would seed 0 as its stand-in seed 89482311
	}
	return int64(z)
}
