package campaign

import (
	"math"
	"sort"
	"sync"
)

// Accumulator folds outcomes into a running Partial as they complete,
// in any order — the streaming counterpart of PartialOfOutcomes. Wire
// Add into Options.OnOutcome and call Snapshot for a view: a dist
// worker posts it with its lease heartbeat, and the local stream
// publishes its Finalize()d Aggregate as a "partial" frame.
//
// Add is O(1) amortized (samples append unsorted); Snapshot pays the
// O(n log n) sort, so throttling snapshots — not adds — bounds the
// cost. A snapshot taken after every outcome has arrived finalizes
// byte-identical to AggregateOutcomes over the same outcomes, whatever
// the completion order was.
type Accumulator struct {
	mu sync.Mutex
	p  Partial
}

// NewAccumulator returns an empty accumulator. The zero value is also
// ready to use.
func NewAccumulator() *Accumulator { return &Accumulator{} }

// Add folds one completed outcome in. Safe for concurrent use, though
// the engine's OnOutcome callback is already serialized.
func (a *Accumulator) Add(o Outcome) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.p.Jobs == 0 {
		a.p.WorstMinGapM = math.Inf(1)
	}
	a.p.addOutcome(o)
}

// Done returns how many outcomes have been folded so far.
func (a *Accumulator) Done() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.p.Jobs
}

// Snapshot returns a valid Partial covering every outcome added so far:
// a deep copy with the sample lists sorted by job index, safe to merge,
// serialize, or Finalize while the sweep keeps running.
func (a *Accumulator) Snapshot() Partial {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := a.p
	p.Latencies = sortedSampleCopy(a.p.Latencies)
	p.DistRMSE = sortedSampleCopy(a.p.DistRMSE)
	p.VelRMSE = sortedSampleCopy(a.p.VelRMSE)
	if p.Jobs == 0 {
		p.WorstMinGapM = 0 // keep the +Inf fold identity out of JSON
	}
	return p
}

// sortedSampleCopy copies s and sorts it by job index (indexes are
// unique per sweep, so the order is total).
func sortedSampleCopy(s []Sample) []Sample {
	if len(s) == 0 {
		return nil
	}
	out := make([]Sample, len(s))
	copy(out, s)
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}
