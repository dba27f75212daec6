// Package safesense is a Go reproduction of "Estimation of Safe Sensor
// Measurements of Autonomous System Under Attack" (Dutta et al., DAC 2017):
// challenge-response authentication (CRA) for detecting Denial-of-Service
// and delay-injection attacks on active sensors, and recursive least
// squares (RLS) estimation of safe sensor measurements for the duration of
// an attack, demonstrated on a car-following case study with an
// ACC-equipped follower vehicle and a 77 GHz FMCW radar.
//
// The package is a facade over the internal subsystems:
//
//   - internal/radar — FMCW radar model (Eqns 5–9), CRA front end
//   - internal/attack — jammer (Eqns 10–11) and delay spoofer
//   - internal/cra — Algorithm 2's challenge-comparison detector
//   - internal/estimate — Algorithm 1 (RLS) and the recovery estimator
//   - internal/acc, internal/vehicle — hierarchical ACC + car following
//   - internal/sim — the closed-loop case study of Section 6
//
// # Quick start
//
//	res, err := safesense.Run(safesense.Fig2aDoS())
//	if err != nil { ... }
//	fmt.Println("attack detected at", res.DetectedAt)
//	res.Distance.RenderASCII(os.Stdout, safesense.PlotOptions{})
package safesense

import (
	"safesense/internal/attack"
	"safesense/internal/cra"
	"safesense/internal/estimate"
	"safesense/internal/noise"
	"safesense/internal/prbs"
	"safesense/internal/radar"
	"safesense/internal/sim"
	"safesense/internal/trace"
	"safesense/internal/units"
)

// Re-exported scenario and simulation types.
type (
	// Scenario configures a full car-following case study run.
	Scenario = sim.Scenario
	// Result carries the traces and metrics of one run.
	Result = sim.Result
	// AttackSpec selects and parameterizes the attack.
	AttackSpec = sim.AttackSpec
	// AttackKind enumerates the supported attacks.
	AttackKind = sim.AttackKind
	// PlotOptions controls ASCII figure rendering.
	PlotOptions = trace.PlotOptions
	// TraceSet is a named collection of time series.
	TraceSet = trace.Set
	// RadarParams is the physical FMCW radar parameter set.
	RadarParams = radar.Params
	// Jammer is the self-screening DoS jammer of Eqn 10.
	Jammer = attack.Jammer
	// RLS is the recursive least squares filter of Algorithm 1.
	RLS = estimate.RLS
	// Predictor is the RLS trend predictor used for recovery.
	Predictor = estimate.Predictor
	// PredictorConfig parameterizes the predictor.
	PredictorConfig = estimate.PredictorConfig
	// RecoveryEstimator couples the RLS trends with vehicle kinematics.
	RecoveryEstimator = estimate.RecoveryEstimator
	// Detector is the CRA detector of Algorithm 2.
	Detector = cra.Detector
	// DetectorEvent is one detector decision.
	DetectorEvent = cra.Event
	// ChallengeSchedule decides the radar's challenge instants.
	ChallengeSchedule = prbs.Schedule
	// NoiseSource is the seeded Gaussian noise source all randomness
	// flows through.
	NoiseSource = noise.Source
	// BeatExtractor recovers beat frequencies from a dechirped sweep.
	BeatExtractor = radar.BeatExtractor
	// FFTExtractor is the periodogram-based beat extractor.
	FFTExtractor = radar.FFTExtractor
	// MUSICExtractor is the root-MUSIC beat extractor the paper uses.
	MUSICExtractor = radar.MUSICExtractor
)

// Attack kinds.
const (
	NoAttack    = sim.NoAttack
	DoSAttack   = sim.DoSAttack
	DelayAttack = sim.DelayAttack
)

// Run executes a scenario (see the Fig* constructors for the paper's
// configurations).
func Run(s Scenario) (*Result, error) { return sim.Run(s) }

// Fig2aDoS returns the Figure 2a scenario: DoS jamming while the leader
// decelerates at a constant -0.1082 m/s^2.
func Fig2aDoS() Scenario { return sim.Fig2aDoS() }

// Fig2bDelay returns the Figure 2b scenario: +6 m delay-injection spoofing
// under constant leader deceleration.
func Fig2bDelay() Scenario { return sim.Fig2bDelay() }

// Fig3aDoS returns the Figure 3a scenario: DoS jamming while the leader
// decelerates then re-accelerates.
func Fig3aDoS() Scenario { return sim.Fig3aDoS() }

// Fig3bDelay returns the Figure 3b scenario: delay-injection spoofing
// under the decelerate-then-accelerate leader.
func Fig3bDelay() Scenario { return sim.Fig3bDelay() }

// Baseline strips the attack from a scenario (the "without attack" curve).
func Baseline(s Scenario) Scenario { return sim.Baseline(s) }

// Undefended disables the CRA + RLS pipeline (the "with attack" curve).
func Undefended(s Scenario) Scenario { return sim.Undefended(s) }

// BoschLRR2 returns the paper's long-range radar parameter set.
func BoschLRR2() RadarParams { return radar.BoschLRR2() }

// PaperJammer returns the Section 6.2 jammer (100 mW, 10 dBi, 155 MHz).
func PaperJammer() Jammer { return attack.PaperJammer() }

// PaperChallengeSchedule returns the pinned challenge schedule used by the
// figure reproductions (challenges at k = 15, 50, ..., 182, ...).
func PaperChallengeSchedule() ChallengeSchedule { return prbs.PaperFigureSchedule() }

// NewRLS builds the 2-weight RLS filter of Algorithm 1 with forgetting
// factor lambda and initialization P = delta*I.
func NewRLS(lambda, delta float64) (*RLS, error) {
	return estimate.NewRLS(lambda, delta)
}

// NewPredictor builds an RLS trend predictor.
func NewPredictor(cfg PredictorConfig) (*Predictor, error) {
	return estimate.NewPredictor(cfg)
}

// DefaultPredictorConfig returns the case study's predictor configuration.
func DefaultPredictorConfig() PredictorConfig { return estimate.DefaultPredictorConfig() }

// NewNoiseSource returns a deterministic Gaussian noise source.
func NewNoiseSource(seed int64) *NoiseSource { return noise.NewSource(seed) }

// MphToMps converts miles per hour to meters per second.
func MphToMps(mph float64) float64 { return units.MphToMps(mph) }

// MpsToMph converts meters per second to miles per hour.
func MpsToMph(mps float64) float64 { return units.MpsToMph(mps) }
