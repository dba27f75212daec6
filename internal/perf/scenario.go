package perf

import (
	"fmt"
	"regexp"
)

// Scenario is one registered perf workload. Setup builds fresh state
// for a repetition outside the measured window and returns the body the
// runner times; the body performs Ops logical operations per call and
// must produce bit-identical domain results on every call for a given
// registration (all randomness flows from seeds fixed at registration,
// mirroring the determinism contract the lint layer enforces on the
// simulation pipeline).
type Scenario struct {
	// Name identifies the scenario in BENCH documents and reports
	// (snake_case, stable across PRs — renaming breaks the trajectory).
	Name string
	// Group clusters related scenarios in reports: "figure", "kernel",
	// "campaign".
	Group string
	// Doc is a one-line description for `safesense-perf run -list`.
	Doc string
	// Ops is how many logical operations one body call performs (>= 1);
	// per-op metrics are divided by it. A full 301-step closed-loop run
	// exposed as a per-step kernel sets Ops to the step count.
	Ops int
	// Setup builds one repetition's state (untimed) and returns the
	// timed body. The body's error aborts the whole run: a perf sample
	// from a run that produced wrong results is worse than no sample.
	Setup func() (func(r *Rep) error, error)
}

// Rep collects a repetition's named observations. Bodies call Observe
// with deterministic domain values (detected_at, runs_per_sec, phase
// seconds); within one repetition the last observation of a name wins,
// so a body called several times per repetition reports once.
type Rep struct {
	extra map[string]float64
}

// NewRep returns an empty repetition recorder.
func NewRep() *Rep { return &Rep{extra: make(map[string]float64)} }

// Observe records v under name for this repetition (last write wins).
func (r *Rep) Observe(name string, v float64) { r.extra[name] = v }

// Value returns the recorded value (zero when never observed).
func (r *Rep) Value(name string) float64 { return r.extra[name] }

// reset clears the recorder between repetitions.
func (r *Rep) reset() {
	for k := range r.extra {
		delete(r.extra, k)
	}
}

// Registry holds the registered scenario set in registration order.
type Registry struct {
	scenarios []Scenario
	byName    map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byName: make(map[string]int)} }

// Register adds a scenario; duplicate names and malformed entries are
// rejected so the suite definition cannot silently shadow itself.
func (g *Registry) Register(s Scenario) error {
	if s.Name == "" {
		return fmt.Errorf("perf: scenario with empty name")
	}
	if s.Setup == nil {
		return fmt.Errorf("perf: scenario %q has no Setup", s.Name)
	}
	if s.Ops < 1 {
		return fmt.Errorf("perf: scenario %q has Ops %d, want >= 1", s.Name, s.Ops)
	}
	if _, dup := g.byName[s.Name]; dup {
		return fmt.Errorf("perf: scenario %q registered twice", s.Name)
	}
	g.byName[s.Name] = len(g.scenarios)
	g.scenarios = append(g.scenarios, s)
	return nil
}

// MustRegister is Register for static suite definitions.
func (g *Registry) MustRegister(s Scenario) {
	if err := g.Register(s); err != nil {
		panic(err)
	}
}

// Lookup returns the named scenario.
func (g *Registry) Lookup(name string) (Scenario, bool) {
	i, ok := g.byName[name]
	if !ok {
		return Scenario{}, false
	}
	return g.scenarios[i], true
}

// Scenarios returns the registered set in registration order.
func (g *Registry) Scenarios() []Scenario {
	return append([]Scenario(nil), g.scenarios...)
}

// Match returns the scenarios whose names match the regexp ("" matches
// all), in registration order.
func (g *Registry) Match(pattern string) ([]Scenario, error) {
	if pattern == "" {
		return g.Scenarios(), nil
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("perf: bad scenario pattern: %w", err)
	}
	var out []Scenario
	for _, s := range g.scenarios {
		if re.MatchString(s.Name) {
			out = append(out, s)
		}
	}
	return out, nil
}
