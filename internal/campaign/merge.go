package campaign

import (
	"fmt"
	"math"

	"safesense/internal/stats"
)

// Partial is the mergeable intermediate form of Aggregate: everything a
// shard of the job grid contributes to the campaign statistics, kept in
// a shape whose Merge is commutative and associative. Counts and
// extrema merge exactly on their own; the float statistics that are
// order-sensitive (means, percentiles, the latency histogram range) are
// not finalized here — instead the raw per-job samples ride along,
// tagged with their job index, so Finalize can replay them in grid
// order no matter how the partials were combined. That is what makes a
// distributed campaign's Aggregate byte-identical to the single-node
// AggregateOutcomes fold regardless of lease partitioning, worker
// scheduling, or merge order.
//
// The sample lists are O(jobs in the shard), which is the same asymptotic
// cost the single-node path already pays to hold the outcome slice; a
// lease of a few hundred jobs serializes to a few tens of kilobytes.
// Partials are the dist wire form (progress posts, completions,
// checkpoint records); the live stream carries only their Finalize()d
// Aggregate, whose size does not grow with the job count.
type Partial struct {
	Jobs           int `json:"jobs"`
	Attacked       int `json:"attacked"`
	Detected       int `json:"detected"`
	Missed         int `json:"missed"`
	FalsePositives int `json:"false_positives"`
	FalseNegatives int `json:"false_negatives"`
	Collisions     int `json:"collisions"`
	EstimatedRuns  int `json:"estimated_runs"`

	// WorstMinGapM is meaningful only when Jobs > 0 (a shard with at
	// least one job always observes a finite min gap, so the field stays
	// JSON-encodable; the +Inf fold identity never escapes Finalize).
	WorstMinGapM   float64 `json:"worst_min_gap_m"`
	WorstDistErrM  float64 `json:"worst_dist_err_m"`
	WorstVelErrMps float64 `json:"worst_vel_err_mps"`

	// Latencies holds one sample per detected run; DistRMSE and VelRMSE
	// hold one sample each per estimated run. All three are sorted by
	// job index (PartialOfOutcomes emits them that way when the outcome
	// list is index-ordered, and Merge preserves the order).
	Latencies []Sample `json:"latencies,omitempty"`
	DistRMSE  []Sample `json:"dist_rmse,omitempty"`
	VelRMSE   []Sample `json:"vel_rmse,omitempty"`
}

// Sample is one per-job float statistic tagged with the job's grid
// index, so merged partials can reconstruct the grid-order fold exactly.
type Sample struct {
	Index int     `json:"i"`
	V     float64 `json:"v"`
}

// PartialOfOutcomes folds per-job records into the mergeable partial.
// It mirrors the AggregateOutcomes loop exactly; outcomes are expected
// in job-index order (the order the engine and every lease produce).
func PartialOfOutcomes(outcomes []Outcome) Partial {
	var p Partial
	if len(outcomes) == 0 {
		return p
	}
	p.WorstMinGapM = math.Inf(1)
	for _, o := range outcomes {
		p.addOutcome(o)
	}
	return p
}

// addOutcome folds one outcome into the partial, appending its samples
// in call order. The caller owns the WorstMinGapM fold identity: set it
// to +Inf before the first outcome (PartialOfOutcomes and
// Accumulator.Add both do).
func (p *Partial) addOutcome(o Outcome) {
	p.Jobs++
	attacked := o.Point.Attack != AttackNone && o.Point.Attack != ""
	if attacked {
		p.Attacked++
		if o.Point.Defended {
			if o.DetectedAt >= 0 {
				p.Detected++
				p.Latencies = append(p.Latencies, Sample{Index: o.Index, V: float64(o.DetectionLatency)})
			} else {
				p.Missed++
			}
		}
	}
	p.FalsePositives += o.FalsePositives
	p.FalseNegatives += o.FalseNegatives
	if o.CollisionAt >= 0 {
		p.Collisions++
	}
	if o.MinGapM < p.WorstMinGapM {
		p.WorstMinGapM = o.MinGapM
	}
	if o.EstimateSteps > 0 {
		p.EstimatedRuns++
		p.DistRMSE = append(p.DistRMSE, Sample{Index: o.Index, V: o.DistRMSEm})
		p.VelRMSE = append(p.VelRMSE, Sample{Index: o.Index, V: o.VelRMSEmps})
		if o.DistMaxErrM > p.WorstDistErrM {
			p.WorstDistErrM = o.DistMaxErrM
		}
		if o.VelMaxErrMps > p.WorstVelErrMps {
			p.WorstVelErrMps = o.VelMaxErrMps
		}
	}
}

// Merge combines two partials. The operation is commutative and
// associative: counts add, extrema take min/max, and the sample lists
// are merged by job index, so any tree of merges over any partition of
// the grid converges to the same value — the one PartialOfOutcomes
// would produce over the whole outcome list.
func (p Partial) Merge(q Partial) Partial {
	if p.Jobs == 0 {
		return q
	}
	if q.Jobs == 0 {
		return p
	}
	out := p.addCounts(q)
	out.Latencies = mergeSamples(p.Latencies, q.Latencies)
	out.DistRMSE = mergeSamples(p.DistRMSE, q.DistRMSE)
	out.VelRMSE = mergeSamples(p.VelRMSE, q.VelRMSE)
	return out
}

// Concat combines partials over ascending, disjoint job ranges — every
// sample index of parts[i] below every one of parts[i+1], as a dist
// campaign's shards are — in one pass: counts add, extrema fold, and
// the sample lists are appended rather than merged. The result
// finalizes exactly as a Merge fold over parts does, for O(samples)
// work instead of Merge's O(parts × samples).
func Concat(parts []*Partial) Partial {
	var nl, nd, nv int
	for _, q := range parts {
		nl, nd, nv = nl+len(q.Latencies), nd+len(q.DistRMSE), nv+len(q.VelRMSE)
	}
	lat, dist, vel := make([]Sample, 0, nl), make([]Sample, 0, nd), make([]Sample, 0, nv)
	var out Partial
	for _, q := range parts {
		switch {
		case q.Jobs == 0:
			continue
		case out.Jobs == 0:
			out = *q
		default:
			out = out.addCounts(*q)
		}
		lat = append(lat, q.Latencies...)
		dist = append(dist, q.DistRMSE...)
		vel = append(vel, q.VelRMSE...)
	}
	out.Latencies, out.DistRMSE, out.VelRMSE = lat, dist, vel
	return out
}

// addCounts folds q's counts and extrema into p's, keeping p's sample
// lists. Both partials must be non-empty (an empty one's WorstMinGapM
// is not a fold identity).
func (p Partial) addCounts(q Partial) Partial {
	p.Jobs += q.Jobs
	p.Attacked += q.Attacked
	p.Detected += q.Detected
	p.Missed += q.Missed
	p.FalsePositives += q.FalsePositives
	p.FalseNegatives += q.FalseNegatives
	p.Collisions += q.Collisions
	p.EstimatedRuns += q.EstimatedRuns
	p.WorstMinGapM = math.Min(p.WorstMinGapM, q.WorstMinGapM)
	p.WorstDistErrM = math.Max(p.WorstDistErrM, q.WorstDistErrM)
	p.WorstVelErrMps = math.Max(p.WorstVelErrMps, q.WorstVelErrMps)
	return p
}

// mergeSamples merges two index-sorted sample lists into one.
func mergeSamples(a, b []Sample) []Sample {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]Sample, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Index <= b[j].Index {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Finalize computes the campaign Aggregate from the partial: the
// order-sensitive statistics (means, percentiles, histogram) are
// derived here, over the index-ordered sample lists, reproducing the
// exact float arithmetic of the single-node fold.
func (p Partial) Finalize() Aggregate {
	agg := Aggregate{Jobs: p.Jobs, WorstMinGapM: math.Inf(1)}
	if p.Jobs == 0 {
		agg.WorstMinGapM = 0
		return agg
	}
	agg.Attacked = p.Attacked
	agg.Detected = p.Detected
	agg.Missed = p.Missed
	agg.FalsePositives = p.FalsePositives
	agg.FalseNegatives = p.FalseNegatives
	agg.Collisions = p.Collisions
	agg.EstimatedRuns = p.EstimatedRuns
	agg.WorstMinGapM = p.WorstMinGapM
	agg.WorstDistErrM = p.WorstDistErrM
	agg.WorstVelErrMps = p.WorstVelErrMps
	agg.CollisionRate = float64(p.Collisions) / float64(p.Jobs)
	agg.MeanDistRMSEm = stats.Mean(sampleValues(p.DistRMSE))
	agg.MeanVelRMSEmps = stats.Mean(sampleValues(p.VelRMSE))
	agg.Latency = latencyStats(sampleValues(p.Latencies))
	return agg
}

// sampleValues projects the sample list onto its values, in list order.
func sampleValues(s []Sample) []float64 {
	if len(s) == 0 {
		return nil
	}
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.V
	}
	return out
}

// Validate checks a partial's internal consistency — the invariants any
// honest PartialOfOutcomes fold satisfies. The distributed coordinator
// applies it to every lease-complete payload before merging, so a
// corrupt or malicious worker cannot poison the campaign aggregate with
// structurally impossible counts.
func (p Partial) Validate() error {
	switch {
	case p.Jobs < 0:
		return fmt.Errorf("campaign: partial jobs %d negative", p.Jobs)
	case p.Jobs == 0:
		if p.Attacked != 0 || p.Detected != 0 || p.Missed != 0 || p.Collisions != 0 ||
			p.EstimatedRuns != 0 || len(p.Latencies) != 0 || len(p.DistRMSE) != 0 || len(p.VelRMSE) != 0 {
			return fmt.Errorf("campaign: empty partial carries samples")
		}
		return nil
	case p.Attacked > p.Jobs || p.Attacked < 0:
		return fmt.Errorf("campaign: partial attacked %d outside [0, %d]", p.Attacked, p.Jobs)
	case p.Detected < 0 || p.Missed < 0 || p.Detected+p.Missed > p.Attacked:
		return fmt.Errorf("campaign: partial detected %d + missed %d exceeds attacked %d", p.Detected, p.Missed, p.Attacked)
	case p.Collisions < 0 || p.Collisions > p.Jobs:
		return fmt.Errorf("campaign: partial collisions %d outside [0, %d]", p.Collisions, p.Jobs)
	case p.FalsePositives < 0 || p.FalseNegatives < 0:
		return fmt.Errorf("campaign: partial confusion counts negative")
	case p.EstimatedRuns < 0 || p.EstimatedRuns > p.Jobs:
		return fmt.Errorf("campaign: partial estimated runs %d outside [0, %d]", p.EstimatedRuns, p.Jobs)
	case len(p.Latencies) != p.Detected:
		return fmt.Errorf("campaign: partial has %d latency samples for %d detections", len(p.Latencies), p.Detected)
	case len(p.DistRMSE) != p.EstimatedRuns || len(p.VelRMSE) != p.EstimatedRuns:
		return fmt.Errorf("campaign: partial has %d/%d RMSE samples for %d estimated runs",
			len(p.DistRMSE), len(p.VelRMSE), p.EstimatedRuns)
	}
	for _, list := range [][]Sample{p.Latencies, p.DistRMSE, p.VelRMSE} {
		for i, s := range list {
			if i > 0 && list[i-1].Index >= s.Index {
				return fmt.Errorf("campaign: partial samples not strictly index-ordered at %d", s.Index)
			}
			if s.Index < 0 {
				return fmt.Errorf("campaign: partial sample index %d negative", s.Index)
			}
		}
	}
	return nil
}

// SampleRange checks that every sample index lies in [start, end) — the
// coordinator's per-lease range check.
func (p Partial) SampleRange(start, end int) error {
	for _, list := range [][]Sample{p.Latencies, p.DistRMSE, p.VelRMSE} {
		for _, s := range list {
			if s.Index < start || s.Index >= end {
				return fmt.Errorf("campaign: partial sample index %d outside lease [%d, %d)", s.Index, start, end)
			}
		}
	}
	return nil
}
