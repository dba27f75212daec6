package campaign

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"time"

	"safesense/internal/obs"
	"safesense/internal/obs/profile"
	obstrace "safesense/internal/obs/trace"
	"safesense/internal/sim"
	"safesense/internal/stats"
)

// wallClock is the engine's injected time source. Campaign results are
// a pure function of the spec; the clock only feeds wall-clock
// observability (job timings, throughput, ETA), and routing every read
// through this seam keeps the determinism analyzer's contract visible
// and lets tests substitute a fake clock.
var wallClock = time.Now

// Options tunes campaign execution.
type Options struct {
	// Workers bounds the worker pool (<= 0 means GOMAXPROCS).
	Workers int
	// OnOutcome, when non-nil, is called after every completed job with
	// the job's outcome and the cumulative Stats (done count, runs/sec,
	// ETA) — the live tap behind streamed progress and incremental
	// Partial accumulation. Calls are serialized but arrive in
	// completion order, not grid order (an Accumulator folds them in
	// any order); the callback must not block for long or it throttles
	// the pool.
	OnOutcome func(Outcome, Stats)
	// DiscardOutcomes drops the per-job outcome list from the summary,
	// keeping only the aggregate — for very large campaigns where the
	// O(jobs) payload is unwanted.
	DiscardOutcomes bool
	// Forensic, when non-nil with a Sink, enables forensic capture:
	// every job whose Result carries anomaly dumps (plus latency
	// outliers beyond the configured percentile) is projected onto a
	// forensic.Capture and handed to the sink, concurrently from the
	// pool workers. See ForensicOptions.
	Forensic *ForensicOptions
	// Campaign names the campaign: the pprof "campaign" label on each
	// job's CPU samples (when a profile consumer is active) and the
	// campaign stamped on forensic captures (metadata only, never
	// hashed). Run defaults it to the spec name.
	Campaign string
	// Log receives the engine's structured records. Every record carries
	// the job's index and seed, so log lines from concurrent sweeps can
	// be tied back to a reproducible scenario. Nil discards.
	Log *slog.Logger
}

// DefaultSlowestJobs is the top-K table size of Summary.SlowestJobs.
const DefaultSlowestJobs = 8

// Outcome is the per-job result record: the job identity plus the scalar
// metrics a sweep aggregates. Traces are deliberately not retained — a
// 10k-job campaign at 301 steps would otherwise hold ~10^7 samples.
type Outcome struct {
	Index     int    `json:"index"`
	Replicate int    `json:"replicate"`
	Label     string `json:"label"`
	Point     Point  `json:"point"`

	// DetectedAt is the step the attack was flagged, -1 if never.
	DetectedAt int `json:"detected_at"`
	// DetectionLatency is DetectedAt - onset, -1 if never detected or no
	// attack was mounted.
	DetectionLatency int `json:"detection_latency"`

	FalsePositives int `json:"false_positives"`
	FalseNegatives int `json:"false_negatives"`

	MinGapM     float64 `json:"min_gap_m"`
	FinalGapM   float64 `json:"final_gap_m"`
	CollisionAt int     `json:"collision_at"`

	EstimateSteps int     `json:"estimate_steps"`
	DistRMSEm     float64 `json:"dist_rmse_m"`
	DistMaxErrM   float64 `json:"dist_max_err_m"`
	VelRMSEmps    float64 `json:"vel_rmse_mps"`
	VelMaxErrMps  float64 `json:"vel_max_err_mps"`
	FinalSpeedMps float64 `json:"final_speed_mps"`
}

// outcomeOf projects a sim.Result onto the campaign record; label is
// j.Point.Label().
func outcomeOf(j Job, label string, res *sim.Result) Outcome {
	o := Outcome{
		Index:            j.Index,
		Replicate:        j.Replicate,
		Label:            label,
		Point:            j.Point,
		DetectedAt:       res.DetectedAt,
		DetectionLatency: -1,
		FalsePositives:   res.Accuracy.FalsePositives,
		FalseNegatives:   res.Accuracy.FalseNegatives,
		MinGapM:          res.MinGap,
		FinalGapM:        res.FinalGap,
		CollisionAt:      res.CollisionAt,
		EstimateSteps:    res.EstimateSteps,
		DistRMSEm:        res.EstimateDistRMSE,
		DistMaxErrM:      res.EstimateDistMaxErr,
		VelRMSEmps:       res.EstimateVelRMSE,
		VelMaxErrMps:     res.EstimateVelMaxErr,
		FinalSpeedMps:    res.FinalFollowerSpeed,
	}
	if j.Point.Attack != AttackNone && j.Point.Attack != "" {
		o.DetectionLatency = stats.DetectionLatency(j.Point.Onset, res.DetectedAt)
	}
	return o
}

// JobTiming is one row of the summary's slowest-jobs table.
type JobTiming struct {
	Index   int     `json:"index"`
	Seed    int64   `json:"seed"`
	Label   string  `json:"label"`
	Seconds float64 `json:"seconds"`
}

// topK accumulates the DefaultSlowestJobs largest job timings; insert
// is O(K) which is fine for K = 8 against ~ms jobs. A nil table
// records nothing.
type topK struct {
	mu   sync.Mutex
	rows []JobTiming
}

func (t *topK) insert(row JobTiming) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i := sort.Search(len(t.rows), func(i int) bool { return t.rows[i].Seconds < row.Seconds })
	if i >= DefaultSlowestJobs {
		return
	}
	t.rows = append(t.rows, JobTiming{})
	copy(t.rows[i+1:], t.rows[i:])
	t.rows[i] = row
	if len(t.rows) > DefaultSlowestJobs {
		t.rows = t.rows[:DefaultSlowestJobs]
	}
}

func (t *topK) table() []JobTiming {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.rows) == 0 {
		return nil
	}
	out := make([]JobTiming, len(t.rows))
	copy(out, t.rows)
	return out
}

// Summary is the full campaign result: the deterministic Aggregate (a pure
// function of the spec), the per-job outcomes, and the timing of this
// particular execution.
type Summary struct {
	Name    string `json:"name,omitempty"`
	Spec    Spec   `json:"spec"`
	Workers int    `json:"workers"`

	Aggregate Aggregate `json:"aggregate"`
	// Outcomes lists every job in grid order (nil when discarded).
	Outcomes []Outcome `json:"outcomes,omitempty"`

	// SlowestJobs ranks this execution's slowest jobs, descending — the
	// first place to look when a sweep's tail latency grows. Wall-clock,
	// not deterministic.
	SlowestJobs []JobTiming `json:"slowest_jobs,omitempty"`

	// ElapsedSeconds and RunsPerSec time this execution (wall clock; not
	// deterministic, excluded from determinism comparisons).
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	RunsPerSec     float64 `json:"runs_per_sec"`
}

// Run expands the spec and executes every job on a bounded worker pool.
// The context cancels the sweep: remaining jobs are abandoned and
// ctx.Err() is returned. Results are deterministic for a given spec —
// identical regardless of Workers.
//
// When ctx carries a trace span (internal/obs/trace), the sweep records
// a campaign.run span plus, per job, queue-wait / job / aggregate spans
// (the job span wraps the simulator's own sim.run span), all linked
// under the caller's trace — so one request ID in safesensed resolves to
// the full fan-out.
func Run(ctx context.Context, spec Spec, opt Options) (*Summary, error) {
	jobs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	if opt.Campaign == "" {
		opt.Campaign = spec.Name
	}
	if f := opt.Forensic; f != nil && f.Sink != nil && f.SpecHash == "" {
		fo := *f
		fo.SpecHash = spec.Hash()
		opt.Forensic = &fo
	}
	workers := poolSize(opt.Workers, len(jobs))

	ctx, cspan := obstrace.StartSpan(ctx, "campaign.run")
	defer cspan.End()
	cspan.SetAttr("campaign", spec.Name)
	cspan.SetAttrInt("jobs", int64(len(jobs)))
	cspan.SetAttrInt("workers", int64(workers))

	metricActiveCampaigns.With().Add(1)
	defer metricActiveCampaigns.With().Add(-1)

	start := wallClock()
	slowest := &topK{}
	outcomes, err := runJobs(ctx, jobs, workers, opt, slowest)
	if err != nil {
		return nil, err
	}

	elapsed := wallClock().Sub(start)
	sum := &Summary{
		Name:           spec.Name,
		Spec:           spec,
		Workers:        workers,
		Aggregate:      AggregateOutcomes(outcomes),
		SlowestJobs:    slowest.table(),
		ElapsedSeconds: elapsed.Seconds(),
	}
	if elapsed > 0 {
		sum.RunsPerSec = float64(len(jobs)) / elapsed.Seconds()
	}
	if !opt.DiscardOutcomes {
		sum.Outcomes = outcomes
	}
	return sum, nil
}

// RunJobs executes an explicit job list — e.g. one distributed lease's
// contiguous shard of a larger grid — on a bounded worker pool,
// returning the outcomes in job-list order. The jobs keep their global
// grid indices (Outcome.Index is Job.Index, not the list position), so
// a shard's outcomes slot directly into the full-grid statistics, and
// OnOutcome's Stats count the list's own jobs. Every option but the
// summary-only DiscardOutcomes applies; the engine sees only the job
// list, so Campaign and Forensic.SpecHash are the caller's to set.
func RunJobs(ctx context.Context, jobs []Job, opt Options) ([]Outcome, error) {
	return runJobs(ctx, jobs, poolSize(opt.Workers, len(jobs)), opt, nil)
}

// poolSize resolves the worker count for n jobs: GOMAXPROCS when
// unset, never more workers than jobs.
func poolSize(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n && n > 0 {
		workers = n
	}
	return workers
}

// runJobs is the one execution path behind Run (a full expanded grid)
// and RunJobs (an arbitrary job sublist). Outcomes are written by list
// position, so the result order always matches the input order; a
// failing job cancels the pool and surfaces the first error. After
// every successful job it records the timing in slowest (nil skips
// that), hands the result to the forensic capturer, then reports the
// outcome to opt.OnOutcome under one lock, in that order. The engine
// retains no sim result past that point. Jobs run at sim.Summary
// detail (no series, no event log, no clock reads), or at sim.Timed
// when the capturer captures latency outliers.
func runJobs(ctx context.Context, jobs []Job, workers int, opt Options, slowest *topK) ([]Outcome, error) {
	logger := opt.Log
	if logger == nil {
		logger = slog.New(obs.DiscardHandler{})
	}
	capt := newCapturer(opt)
	// Nothing reads a job's phase timing unless a latency capture may
	// need to explain it; jobTime below times the job itself.
	detail := sim.Summary
	if capt.capturesLatency() {
		detail = sim.Timed
	}
	ctx = sim.WithDetail(ctx, detail)
	// The per-job debug line boxes its arguments even when the handler
	// drops it, so the level is checked once per execution.
	debug := logger.Enabled(ctx, slog.LevelDebug)
	var report func(Outcome)
	if opt.OnOutcome != nil {
		var mu sync.Mutex
		done := 0
		start := wallClock()
		report = func(o Outcome) {
			mu.Lock()
			defer mu.Unlock()
			done++
			opt.OnOutcome(o, statsAt(done, len(jobs), wallClock().Sub(start)))
		}
	}

	type feedItem struct {
		pos int
		job Job
	}
	outcomes := make([]Outcome, len(jobs))
	feed := make(chan feedItem)
	errc := make(chan error, workers)
	var wg sync.WaitGroup

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, qspan := obstrace.StartSpan(ctx, "campaign.queue_wait")
				idle := wallClock()
				it, ok := <-feed
				if !ok {
					qspan.End()
					return
				}
				j := it.job
				qspan.SetAttrInt("job", int64(j.Index))
				qspan.End()
				metricQueueWaitSeconds.With().ObserveDuration(wallClock().Sub(idle))

				busy := wallClock()
				jobCtx, jspan := obstrace.StartSpan(ctx, "campaign.job")
				jspan.SetAttrInt("job", int64(j.Index))
				jspan.SetAttrInt("seed", j.Point.Seed)
				label := j.Point.Label()
				jspan.SetAttr("label", label)
				s, err := j.Point.scenario(label)
				if err == nil {
					var res *sim.Result
					if profile.Enabled() {
						// Tag the job's CPU samples; the sim's own phase
						// labels merge on top inside RunContext.
						profile.DoJob(jobCtx, opt.Campaign, j.Index, func(c context.Context) {
							res, err = sim.RunContext(c, s)
						})
					} else {
						res, err = sim.RunContext(jobCtx, s)
					}
					if err == nil {
						_, aspan := obstrace.StartSpan(jobCtx, "campaign.aggregate")
						outcomes[it.pos] = outcomeOf(j, label, res)
						aspan.End()
						jspan.End()
						jobTime := wallClock().Sub(busy)
						metricJobSeconds.With().ObserveDuration(jobTime)
						metricWorkerBusySeconds.With().Add(jobTime.Seconds())
						metricJobsDone.With().Inc()
						if debug {
							logger.Debug("campaign job done",
								"job", j.Index, "seed", j.Point.Seed,
								"duration_ms", float64(jobTime.Nanoseconds())/1e6)
						}
						slowest.insert(JobTiming{
							Index: j.Index, Seed: j.Point.Seed,
							Label: label, Seconds: jobTime.Seconds(),
						})
						if capt != nil {
							capt.observe(j, label, res, jobTime)
						}
						if report != nil {
							report(outcomes[it.pos])
						}
						continue
					}
				}
				jspan.SetAttr("error", err.Error())
				jspan.End()
				metricJobsFailed.With().Inc()
				logger.Error("campaign job failed",
					"job", j.Index, "seed", j.Point.Seed, "error", err.Error())
				select {
				case errc <- fmt.Errorf("campaign: job %d (seed %d, %s): %w",
					j.Index, j.Point.Seed, label, err):
				default:
				}
				cancel()
				return
			}
		}()
	}

feedLoop:
	for pos, j := range jobs {
		select {
		case feed <- feedItem{pos: pos, job: j}:
		case <-runCtx.Done():
			break feedLoop
		}
	}
	close(feed)
	wg.Wait()

	select {
	case err := <-errc:
		return nil, err
	default:
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return outcomes, nil
}
