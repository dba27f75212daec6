package campaign

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"safesense/internal/stats"
)

// Partial is the mergeable intermediate form of Aggregate: everything a
// shard of the job grid contributes to the campaign statistics, in a
// shape whose Merge is a plain field-wise sum, commutative and
// associative. Counts add and extrema fold. The detection latencies,
// integer steps, are kept as a multiset of (steps, count); the per-run
// RMSEs are kept as exact sums (stats.ExactSum), whose canonical terms
// depend only on the values summed. Finalize derives the means,
// percentiles and histogram from those alone, so any partition of the
// grid, merged in any order, finalizes byte-identical to the
// single-node AggregateOutcomes fold.
//
// A partial's size does not grow with the jobs it covers: it is bounded
// by the distinct latencies (a few dozen on a real grid) and the exact
// sums' terms (at most stats.MaxTerms, a handful in practice).
// Partials are the dist wire form (progress posts, completions,
// checkpoint records); the live stream carries their Finalize()d
// Aggregate.
type Partial struct {
	Jobs           int `json:"jobs"`
	Attacked       int `json:"attacked"`
	Detected       int `json:"detected"`
	Missed         int `json:"missed"`
	FalsePositives int `json:"false_positives"`
	FalseNegatives int `json:"false_negatives"`
	Collisions     int `json:"collisions"`
	EstimatedRuns  int `json:"estimated_runs"`

	// WorstMinGapM is meaningful only when Jobs > 0.
	WorstMinGapM   float64 `json:"worst_min_gap_m"`
	WorstDistErrM  float64 `json:"worst_dist_err_m"`
	WorstVelErrMps float64 `json:"worst_vel_err_mps"`

	// Latencies is the detection-latency multiset, ascending by steps;
	// its counts sum to Detected. DistRMSE and VelRMSE sum the per-run
	// RMSEs of the estimated runs; they are empty exactly when
	// EstimatedRuns is zero.
	Latencies []LatencyCount `json:"latencies,omitempty"`
	DistRMSE  stats.ExactSum `json:"dist_rmse,omitempty"`
	VelRMSE   stats.ExactSum `json:"vel_rmse,omitempty"`
}

// LatencyCount is how many detected runs had one detection latency.
type LatencyCount struct {
	Steps int `json:"steps"`
	Count int `json:"count"`
}

// PartialOfOutcomes folds per-job records, in any order, into the
// mergeable partial.
func PartialOfOutcomes(outcomes []Outcome) Partial {
	var p Partial
	for _, o := range outcomes {
		p.addOutcome(o)
	}
	return p
}

// addOutcome folds one outcome into the partial, in place.
func (p *Partial) addOutcome(o Outcome) {
	if p.Jobs == 0 || o.MinGapM < p.WorstMinGapM {
		p.WorstMinGapM = o.MinGapM
	}
	p.Jobs++
	attacked := o.Point.Attack != AttackNone && o.Point.Attack != ""
	if attacked {
		p.Attacked++
		if o.Point.Defended {
			if o.DetectedAt >= 0 {
				p.Detected++
				p.Latencies = addLatency(p.Latencies, o.DetectionLatency, 1)
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
	if o.EstimateSteps > 0 {
		p.EstimatedRuns++
		p.DistRMSE.Add(o.DistRMSEm)
		p.VelRMSE.Add(o.VelRMSEmps)
		if o.DistMaxErrM > p.WorstDistErrM {
			p.WorstDistErrM = o.DistMaxErrM
		}
		if o.VelMaxErrMps > p.WorstVelErrMps {
			p.WorstVelErrMps = o.VelMaxErrMps
		}
	}
}

// addLatency adds n runs of the given latency to the ascending
// multiset lat, in place.
func addLatency(lat []LatencyCount, steps, n int) []LatencyCount {
	i, found := slices.BinarySearchFunc(lat, steps, func(c LatencyCount, s int) int { return cmp.Compare(c.Steps, s) })
	if found {
		lat[i].Count += n
		return lat
	}
	return slices.Insert(lat, i, LatencyCount{Steps: steps, Count: n})
}

// Merge combines two partials field by field: counts add, extrema take
// min/max, latency multisets and exact sums add. It is commutative and
// associative, the zero Partial is its identity, and it modifies
// neither operand, so any tree of merges over any partition of the
// grid yields the partial PartialOfOutcomes builds over the whole.
func (p Partial) Merge(q Partial) Partial {
	if p.Jobs == 0 {
		return q
	}
	if q.Jobs == 0 {
		return p
	}
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
	lat := slices.Clone(p.Latencies)
	for _, c := range q.Latencies {
		lat = addLatency(lat, c.Steps, c.Count)
	}
	p.Latencies = lat
	p.DistRMSE = p.DistRMSE.Merge(q.DistRMSE)
	p.VelRMSE = p.VelRMSE.Merge(q.VelRMSE)
	return p
}

// Finalize computes the campaign Aggregate from the partial. The means
// are the exact RMSE sums rounded once and divided by the run count;
// the latency statistics are computed over the multiset expanded in
// ascending order (integer sums below 2^53 are exact in any order).
func (p Partial) Finalize() Aggregate {
	agg := Aggregate{
		Jobs: p.Jobs, Attacked: p.Attacked, Detected: p.Detected, Missed: p.Missed,
		FalsePositives: p.FalsePositives, FalseNegatives: p.FalseNegatives,
		Collisions: p.Collisions, EstimatedRuns: p.EstimatedRuns, WorstMinGapM: p.WorstMinGapM,
		WorstDistErrM: p.WorstDistErrM, WorstVelErrMps: p.WorstVelErrMps,
	}
	if p.Jobs == 0 {
		return agg
	}
	agg.CollisionRate = float64(p.Collisions) / float64(p.Jobs)
	if p.EstimatedRuns > 0 {
		agg.MeanDistRMSEm = p.DistRMSE.Value() / float64(p.EstimatedRuns)
		agg.MeanVelRMSEmps = p.VelRMSE.Value() / float64(p.EstimatedRuns)
	}
	lat := make([]float64, 0, p.Detected)
	for _, c := range p.Latencies {
		for range c.Count {
			lat = append(lat, float64(c.Steps))
		}
	}
	agg.Latency = latencyStats(lat)
	return agg
}

// Validate checks a partial's internal consistency: the invariants any
// honest PartialOfOutcomes fold satisfies, and that it finalizes to an
// Aggregate with finite, non-negative means. The distributed
// coordinator applies it to every progress post, completion and
// checkpoint record before using the partial, so a corrupt or malicious
// worker cannot poison the campaign aggregate or make it unencodable.
// Latencies may be negative: a detector false positive before the
// attack onset is a detection with negative latency.
func (p Partial) Validate() error {
	switch {
	case p.Jobs < 0:
		return fmt.Errorf("campaign: partial jobs %d negative", p.Jobs)
	case p.WorstDistErrM < 0 || p.WorstVelErrMps < 0:
		return fmt.Errorf("campaign: partial worst errors %g m, %g m/s negative", p.WorstDistErrM, p.WorstVelErrMps)
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
	}
	detected := 0
	for i, c := range p.Latencies {
		switch {
		case c.Count <= 0:
			return fmt.Errorf("campaign: partial latency %d has count %d", c.Steps, c.Count)
		case i > 0 && c.Steps <= p.Latencies[i-1].Steps:
			return fmt.Errorf("campaign: partial latencies not ascending at %d", c.Steps)
		case c.Count > p.Detected-detected:
			return fmt.Errorf("campaign: partial latency counts exceed %d detections", p.Detected)
		}
		detected += c.Count
	}
	if detected != p.Detected {
		return fmt.Errorf("campaign: partial latency counts sum to %d for %d detections", detected, p.Detected)
	}
	for _, s := range []stats.ExactSum{p.DistRMSE, p.VelRMSE} {
		if (len(s) > 0) != (p.EstimatedRuns > 0) {
			return fmt.Errorf("campaign: partial RMSE sum of %d terms for %d estimated runs", len(s), p.EstimatedRuns)
		}
		if err := s.Validate(); err != nil {
			return fmt.Errorf("campaign: partial RMSE sum: %w", err)
		}
		if v := s.Value(); v < 0 {
			return fmt.Errorf("campaign: partial RMSE sum %g negative", v)
		}
	}
	return nil
}
