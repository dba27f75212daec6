package profile

import (
	"crypto/sha256"
	"encoding/hex"
	"log/slog"
	"time"

	"safesense/internal/obs"
	"safesense/internal/obs/castore"
)

// clock is the store's injected time source — captures are stamped for
// humans reading /v1/profiles, never compared; recency ordering uses
// the logical seq counter, matching the determinism contract.
var clock = time.Now

// DefaultStoreBudgetBytes bounds resident capture bytes by default.
// CPU captures are ~100 KiB, so the default keeps on the order of a
// few hundred windows.
const DefaultStoreBudgetBytes = 32 << 20

// Capture is one stored profile: identity, provenance stamps, and the
// precomputed phase shares. The raw bytes live only inside the store and are
// returned by Get.
type Capture struct {
	// ID is the hex SHA-256 of the raw capture bytes (content address;
	// identical captures dedupe).
	ID  string `json:"id"`
	Seq uint64 `json:"seq"`
	// Kind names the profile flavor, e.g. "cpu".
	Kind        string    `json:"kind"`
	CapturedAt  time.Time `json:"captured_at"`
	VCSRevision string    `json:"vcs_revision,omitempty"`
	Host        obs.Host  `json:"host"`
	Bytes       int       `json:"bytes"`
	// WindowNanos is how long the capture window was open.
	WindowNanos int64   `json:"window_nanos,omitempty"`
	Shares      *Shares `json:"shares,omitempty"`
}

// StoreOptions tunes a Store.
type StoreOptions struct {
	// BudgetBytes bounds resident raw capture bytes (zero means
	// DefaultStoreBudgetBytes). Inserts over budget evict the oldest
	// captures — same recency discipline as the forensic store, minus
	// the priority tiers (every profile capture ranks equal).
	BudgetBytes int64
	// Log receives store lifecycle records (nil discards).
	Log *slog.Logger
}

// stored is one resident capture plus its raw bytes.
type stored struct {
	meta Capture
	raw  []byte
}

// Store is the memory-only castore instance for profile captures, at
// one priority tier and budgeted by raw bytes. Profiles are ephemeral
// observability data — unlike forensic anomaly evidence they are not
// persisted; a restart simply starts capturing again. All methods are
// safe for concurrent use.
type Store struct {
	host obs.Host
	rev  string
	idx  *castore.Store[stored]
}

// NewStore builds an empty store.
func NewStore(opts StoreOptions) *Store {
	if opts.BudgetBytes <= 0 {
		opts.BudgetBytes = DefaultStoreBudgetBytes
	}
	// A memory-only store cannot fail to open.
	idx, _ := castore.Open(castore.Config[stored]{
		Name:      "profile",
		Budget:    opts.BudgetBytes,
		Log:       opts.Log,
		Size:      func(e stored) int64 { return int64(len(e.raw)) },
		Evicted:   func(stored) { metricEvictions.With().Inc() },
		Live:      metricLiveCaptures.With(),
		LiveBytes: metricLiveBytes.With(),
	})
	return &Store{host: obs.ReadHost(), rev: obs.VCSRevision(), idx: idx}
}

// Put stores one capture, stamping identity (content hash), sequence,
// wall time, VCS revision, and host fingerprint. It returns the capture
// metadata and whether it was new (false = dedup hit; recency is
// refreshed). Inserting over budget evicts oldest-first until the
// store fits.
func (s *Store) Put(raw []byte, kind string, windowNanos int64, sh *Shares) (Capture, bool) {
	h := sha256.Sum256(raw)
	id := hex.EncodeToString(h[:])
	// A memory-only store with a Size function cannot fail a Put.
	it, fresh, _ := s.idx.Put(id, stored{
		meta: Capture{
			ID:          id,
			Kind:        kind,
			CapturedAt:  clock(),
			VCSRevision: s.rev,
			Host:        s.host,
			Bytes:       len(raw),
			WindowNanos: windowNanos,
			Shares:      sh,
		},
		raw: raw,
	})
	if fresh {
		metricCaptures.With().Inc()
	}
	return withSeq(it), fresh
}

// withSeq is an item's capture metadata stamped with its current
// recency.
func withSeq(it castore.Item[stored]) Capture {
	c := it.Value.meta
	c.Seq = it.Seq
	return c
}

// Get returns a capture's metadata and raw bytes by ID, bumping its
// recency. Callers must treat the raw slice as read-only.
func (s *Store) Get(id string) (Capture, []byte, bool) {
	it, ok := s.idx.Get(id)
	if !ok {
		return Capture{}, nil, false
	}
	return withSeq(it), it.Value.raw, true
}

// List returns every resident capture's metadata, most recent first.
func (s *Store) List() []Capture {
	items := s.idx.List(nil)
	out := make([]Capture, len(items))
	for i, it := range items {
		out[i] = withSeq(it)
	}
	return out
}

// Len returns the resident capture count.
func (s *Store) Len() int { return s.idx.Len() }
