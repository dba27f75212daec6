package forensic

import (
	"log/slog"
	"slices"

	"safesense/internal/obs/castore"
)

// DefaultBudgetBytes is the store's default resident-capture budget.
// Captures are a few KiB each, so the default keeps on the order of
// 10^4 anomalies.
const DefaultBudgetBytes = 64 << 20

// Options tunes a Store.
type Options struct {
	// Dir is the segment directory. Empty means memory-only: the index
	// works normally but nothing persists.
	Dir string
	// BudgetBytes bounds the encoded segment-line bytes of resident
	// captures (zero means DefaultBudgetBytes).
	BudgetBytes int64
	// Log receives store lifecycle records (nil discards).
	Log *slog.Logger
}

// Meta is one capture's index row, as listed by /v1/anomalies.
type Meta struct {
	Hash     string   `json:"hash"`
	SpecHash string   `json:"spec_hash,omitempty"`
	Campaign string   `json:"campaign,omitempty"`
	JobIndex int      `json:"job_index"`
	Seed     int64    `json:"seed"`
	Label    string   `json:"label,omitempty"`
	Attack   string   `json:"attack,omitempty"`
	Kinds    []string `json:"kinds"`
	Bytes    int      `json:"bytes"`
}

// Store is a content-addressed, budget-bounded capture store: the
// castore policy with captures ranked by kind priority, so collisions
// outlive detector confusion, which outlives latency outliers. All
// methods are safe for concurrent use.
type Store struct {
	idx *castore.Store[Capture]
}

// Open builds a store, replaying any existing segments in opts.Dir
// (which is created when missing). With an empty Dir the store is
// memory-only.
func Open(opts Options) (*Store, error) {
	if opts.BudgetBytes <= 0 {
		opts.BudgetBytes = DefaultBudgetBytes
	}
	idx, err := castore.Open(castore.Config[Capture]{
		Name:     "forensic",
		Dir:      opts.Dir,
		Budget:   opts.BudgetBytes,
		Log:      opts.Log,
		Priority: capturePriority,
		// A replayed capture must be valid and stored under its own hash.
		Valid: func(hash string, c Capture) bool {
			h, err := c.Hash()
			return err == nil && h == hash && ValidateCapture(c) == nil
		},
		Evicted:   func(c Capture) { metricEvictions.With(kindLabel(PrimaryKind(c))).Inc() },
		Live:      metricLiveCaptures.With(),
		LiveBytes: metricLiveBytes.With(),
	})
	if err != nil {
		return nil, err
	}
	return &Store{idx: idx}, nil
}

// Close releases the active segment file (memory-only stores are a
// no-op). The store must not be used after Close.
func (s *Store) Close() error { return s.idx.Close() }

// Put stores a capture, returning its content hash and whether it was
// new (false means the hash was already resident — the dedup hit that
// makes double-shipped worker captures idempotent). The insert may
// push the store over budget, in which case the lowest-(priority,
// recency) captures — possibly this one — are evicted until it fits.
func (s *Store) Put(c Capture) (string, bool, error) {
	if err := ValidateCapture(c); err != nil {
		return "", false, err
	}
	hash, err := c.Hash()
	if err != nil {
		return "", false, err
	}
	_, fresh, err := s.idx.Put(hash, c)
	switch {
	case fresh:
		metricCaptures.With(kindLabel(PrimaryKind(c))).Inc()
	case err != nil:
		return "", false, err
	default:
		metricDuplicates.With().Inc()
	}
	return hash, fresh, err
}

// Get returns a stored capture by content hash, bumping its recency.
// Callers must treat the capture's slices as read-only.
func (s *Store) Get(hash string) (Capture, bool) {
	it, ok := s.idx.Get(hash)
	return it.Value, ok
}

// Query filters a List call. Zero values match everything; Limit <= 0
// means no page bound.
type Query struct {
	Kind     string
	Campaign string
	Attack   string
	SpecHash string
	Offset   int
	Limit    int
}

// matches reports whether a capture satisfies the query filters.
func (q Query) matches(c Capture) bool {
	if q.Campaign != "" && c.Campaign != q.Campaign {
		return false
	}
	if q.Attack != "" && c.Attack != q.Attack {
		return false
	}
	if q.SpecHash != "" && c.SpecHash != q.SpecHash {
		return false
	}
	return q.Kind == "" || slices.Contains(c.Kinds, q.Kind)
}

// List returns the matching captures' metadata, most recent first,
// plus the total match count before Offset/Limit paging.
func (s *Store) List(q Query) ([]Meta, int) {
	matched := s.idx.List(q.matches)
	total := len(matched)
	matched = matched[min(max(q.Offset, 0), total):]
	if q.Limit > 0 && len(matched) > q.Limit {
		matched = matched[:q.Limit]
	}
	out := make([]Meta, len(matched))
	for i, it := range matched {
		c := it.Value
		out[i] = Meta{
			Hash:     it.Key,
			SpecHash: c.SpecHash,
			Campaign: c.Campaign,
			JobIndex: c.JobIndex,
			Seed:     c.Seed,
			Label:    c.Label,
			Attack:   c.Attack,
			Kinds:    c.Kinds,
			Bytes:    int(it.Bytes),
		}
	}
	return out, total
}

// Len returns the resident capture count.
func (s *Store) Len() int { return s.idx.Len() }
