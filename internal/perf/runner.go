package perf

import (
	"fmt"
	"runtime"
	"time"

	"safesense/internal/obs"
)

// wallClock is the runner's injected time source (the same seam idiom
// internal/campaign uses): production reads time.Now, tests substitute
// a fake clock so runner output is reproducible.
var wallClock = time.Now

// RunnerConfig tunes the measurement loop.
type RunnerConfig struct {
	// Reps is the measured repetition count per scenario (default 10).
	// More reps sharpen the Mann-Whitney test; 10 gives the comparator
	// enough to call a 10% shift on a quiet machine.
	Reps int
	// Warmup is the unmeasured repetition count run first (default 1),
	// letting caches, the branch predictor, and the heap reach steady
	// state.
	Warmup int
	// MinRepMillis is the per-repetition time floor (default 20): the
	// runner calibrates an inner loop count so one repetition's body
	// calls take at least this long, keeping clock quantization out of
	// fast kernels.
	MinRepMillis int
	// MaxInner caps the calibrated inner loop count (default 1<<16).
	MaxInner int
}

func (c RunnerConfig) withDefaults() RunnerConfig {
	if c.Reps <= 0 {
		c.Reps = 10
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	} else if c.Warmup == 0 {
		c.Warmup = 1
	}
	if c.MinRepMillis <= 0 {
		c.MinRepMillis = 20
	}
	if c.MaxInner <= 0 {
		c.MaxInner = 1 << 16
	}
	return c
}

// Runner executes scenarios and assembles Run documents.
type Runner struct {
	cfg RunnerConfig
	// now and readRuntime are seams for deterministic tests.
	now         func() time.Time
	readRuntime func() obs.RuntimeSnapshot

	// OnScenario, when non-nil, is called before each scenario runs —
	// the CLI's progress line.
	OnScenario func(name string)
}

// NewRunner builds a runner with the given config (zero values take
// defaults).
func NewRunner(cfg RunnerConfig) *Runner {
	return &Runner{
		cfg:         cfg.withDefaults(),
		now:         wallClock,
		readRuntime: obs.ReadRuntime,
	}
}

// RunScenario measures one scenario: warmup repetitions, then cfg.Reps
// measured repetitions, each built from a fresh Setup. Per repetition it
// captures wall ns/op, allocs/op and bytes/op (runtime.MemStats
// deltas), the runtime/metrics GC and heap readings, and whatever the
// body observed into its Rep.
func (r *Runner) RunScenario(s Scenario) (ScenarioResult, error) {
	res := ScenarioResult{
		Name:  s.Name,
		Group: s.Group,
		Ops:   s.Ops,
		Extra: make(map[string][]float64),
	}

	inner, err := r.calibrate(s)
	if err != nil {
		return res, err
	}
	rep := NewRep()
	for w := 0; w < r.cfg.Warmup; w++ {
		body, err := s.Setup()
		if err != nil {
			return res, fmt.Errorf("perf: %s: setup: %w", s.Name, err)
		}
		for i := 0; i < inner; i++ {
			if err := body(rep); err != nil {
				return res, fmt.Errorf("perf: %s: warmup: %w", s.Name, err)
			}
		}
	}

	for n := 0; n < r.cfg.Reps; n++ {
		body, err := s.Setup()
		if err != nil {
			return res, fmt.Errorf("perf: %s: setup: %w", s.Name, err)
		}
		rep.reset()

		var msBefore, msAfter runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		rtBefore := r.readRuntime()
		t0 := r.now()
		for i := 0; i < inner; i++ {
			if err := body(rep); err != nil {
				return res, fmt.Errorf("perf: %s: rep %d: %w", s.Name, n, err)
			}
		}
		elapsed := r.now().Sub(t0)
		rtAfter := r.readRuntime()
		runtime.ReadMemStats(&msAfter)

		ops := float64(inner) * float64(s.Ops)
		res.NsPerOp = append(res.NsPerOp, float64(elapsed.Nanoseconds())/ops)
		res.AllocsPerOp = append(res.AllocsPerOp, float64(msAfter.Mallocs-msBefore.Mallocs)/ops)
		res.BytesPerOp = append(res.BytesPerOp, float64(msAfter.TotalAlloc-msBefore.TotalAlloc)/ops)

		res.Extra[ExtraHeapBytes] = append(res.Extra[ExtraHeapBytes], rtAfter.HeapBytes)
		res.Extra[ExtraGoroutines] = append(res.Extra[ExtraGoroutines], rtAfter.Goroutines)
		res.Extra[ExtraGCCyclesDelta] = append(res.Extra[ExtraGCCyclesDelta], rtAfter.GCCycles-rtBefore.GCCycles)
		res.Extra[ExtraGCPauseSeconds] = append(res.Extra[ExtraGCPauseSeconds], rtAfter.GCPauseTotalSeconds-rtBefore.GCPauseTotalSeconds)

		for _, name := range sortedFloatKeys(rep.extra) {
			res.Extra[name] = append(res.Extra[name], rep.extra[name])
		}
	}
	return res, nil
}

// calibrate picks the inner loop count: enough body calls that one
// repetition spans at least MinRepMillis, fixed once per scenario so
// every repetition measures identical work.
func (r *Runner) calibrate(s Scenario) (int, error) {
	body, err := s.Setup()
	if err != nil {
		return 0, fmt.Errorf("perf: %s: setup: %w", s.Name, err)
	}
	rep := NewRep()
	t0 := r.now()
	if err := body(rep); err != nil {
		return 0, fmt.Errorf("perf: %s: calibration: %w", s.Name, err)
	}
	once := r.now().Sub(t0)
	floor := time.Duration(r.cfg.MinRepMillis) * time.Millisecond
	if once >= floor {
		return 1, nil
	}
	if once <= 0 {
		once = time.Nanosecond
	}
	inner := int(floor/once) + 1
	if inner > r.cfg.MaxInner {
		inner = r.cfg.MaxInner
	}
	return inner, nil
}

// RunSuite measures every scenario in the set and assembles the full
// Run document (host fingerprint, VCS revision, creation time).
func (r *Runner) RunSuite(scenarios []Scenario) (*Run, error) {
	run := &Run{
		SchemaVersion: SchemaVersion,
		CreatedAt:     r.now().UTC().Format(time.RFC3339),
		VCSRevision:   obs.VCSRevision(),
		Host:          obs.ReadHost(),
		Config: Config{
			Reps:         r.cfg.Reps,
			Warmup:       r.cfg.Warmup,
			MinRepMillis: r.cfg.MinRepMillis,
		},
	}
	for _, s := range scenarios {
		if r.OnScenario != nil {
			r.OnScenario(s.Name)
		}
		sr, err := r.RunScenario(s)
		if err != nil {
			return nil, err
		}
		run.Scenarios = append(run.Scenarios, sr)
	}
	return run, nil
}

// sortedFloatKeys returns a map's keys sorted (keeps per-rep Extra
// append order independent of map iteration order).
func sortedFloatKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Insertion sort: the observation sets are tiny (< 16 names).
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
