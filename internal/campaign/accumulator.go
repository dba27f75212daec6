package campaign

import (
	"slices"
	"sync"
)

// Accumulator folds outcomes into a running Partial as they complete,
// in any order — the streaming counterpart of PartialOfOutcomes. Wire
// Add into Options.OnOutcome and call Snapshot for a view: a dist
// worker posts it with its lease heartbeat, and the local stream
// publishes its Finalize()d Aggregate as a "partial" frame.
//
// Add and Snapshot cost O(distinct latencies + exact-sum terms), which
// does not grow with the job count. A snapshot taken after every
// outcome has arrived finalizes byte-identical to AggregateOutcomes
// over the same outcomes, whatever the completion order was.
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
	a.p.addOutcome(o)
}

// Snapshot returns a valid Partial covering every outcome added so far:
// a deep copy, safe to merge, serialize, or Finalize while the sweep
// keeps running.
func (a *Accumulator) Snapshot() Partial {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := a.p
	p.Latencies = slices.Clone(a.p.Latencies)
	p.DistRMSE = slices.Clone(a.p.DistRMSE)
	p.VelRMSE = slices.Clone(a.p.VelRMSE)
	return p
}
