package profile

import (
	"crypto/sha256"
	"encoding/hex"
	"log/slog"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"safesense/internal/obs"
)

// clock is the store's injected time source — captures are stamped for
// humans reading /v1/profiles, never compared; recency ordering uses
// the logical seq counter, matching the determinism contract.
var clock = time.Now

// DefaultStoreBudgetBytes bounds resident capture bytes by default.
// CPU captures are ~100 KiB, so the default keeps on the order of a
// few hundred windows.
const DefaultStoreBudgetBytes = 32 << 20

// Host fingerprints the machine a capture was taken on. (Deliberately
// a local type: internal/perf has an equivalent, but perf imports this
// package, not the reverse.)
type Host struct {
	Hostname   string `json:"hostname,omitempty"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	CPUs       int    `json:"cpus"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// ReadHost captures the current process's fingerprint.
func ReadHost() Host {
	name, _ := os.Hostname()
	return Host{
		Hostname:   name,
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// VCSRevision extracts the commit the binary was built from ("" when
// unstamped, "-dirty" suffix on a modified tree).
func VCSRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, modified string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	if rev != "" && modified == "true" {
		rev += "-dirty"
	}
	return rev
}

// Capture is one stored profile: identity, provenance stamps, and the
// precomputed summary. The raw bytes live only inside the store and are
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
	Host        Host      `json:"host"`
	Bytes       int       `json:"bytes"`
	// WindowNanos is how long the capture window was open.
	WindowNanos int64    `json:"window_nanos,omitempty"`
	Summary     *Summary `json:"summary,omitempty"`
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

// storeEntry is one resident capture plus its raw bytes.
type storeEntry struct {
	meta Capture
	raw  []byte
}

// Store is a content-addressed, budget-bounded in-memory capture store.
// Profiles are ephemeral observability data — unlike forensic anomaly
// evidence they are not persisted; a restart simply starts capturing
// again. All methods are safe for concurrent use.
type Store struct {
	opts StoreOptions
	host Host
	rev  string

	mu        sync.Mutex
	entries   map[string]*storeEntry
	liveBytes int64
	nextSeq   uint64
}

// NewStore builds an empty store.
func NewStore(opts StoreOptions) *Store {
	if opts.BudgetBytes <= 0 {
		opts.BudgetBytes = DefaultStoreBudgetBytes
	}
	if opts.Log == nil {
		opts.Log = slog.New(obs.DiscardHandler{})
	}
	return &Store{
		opts:    opts,
		host:    ReadHost(),
		rev:     VCSRevision(),
		entries: make(map[string]*storeEntry),
	}
}

// Put stores one capture, stamping identity (content hash), sequence,
// wall time, VCS revision, and host fingerprint. It returns the capture
// metadata and whether it was new (false = dedup hit; recency is
// refreshed). Inserting over budget evicts oldest-first until the
// store fits.
func (s *Store) Put(raw []byte, kind string, windowNanos int64, sum *Summary) (Capture, bool) {
	h := sha256.Sum256(raw)
	id := hex.EncodeToString(h[:])
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[id]; e != nil {
		s.nextSeq++
		e.meta.Seq = s.nextSeq
		return e.meta, false
	}
	s.nextSeq++
	e := &storeEntry{
		meta: Capture{
			ID:          id,
			Seq:         s.nextSeq,
			Kind:        kind,
			CapturedAt:  clock(),
			VCSRevision: s.rev,
			Host:        s.host,
			Bytes:       len(raw),
			WindowNanos: windowNanos,
			Summary:     sum,
		},
		raw: raw,
	}
	s.entries[id] = e
	s.liveBytes += int64(len(raw))
	metricCaptures.With().Inc()
	s.evictLocked()
	s.publishGaugesLocked()
	return e.meta, true
}

// evictLocked drops captures while the store is over budget, lowest
// seq (least recently stored or touched) first.
func (s *Store) evictLocked() {
	for s.liveBytes > s.opts.BudgetBytes && len(s.entries) > 0 {
		var victim *storeEntry
		for _, e := range s.entries {
			if victim == nil || e.meta.Seq < victim.meta.Seq {
				victim = e
			}
		}
		delete(s.entries, victim.meta.ID)
		s.liveBytes -= int64(len(victim.raw))
		metricEvictions.With().Inc()
		s.opts.Log.Debug("profile capture evicted",
			"id", victim.meta.ID, "bytes", len(victim.raw))
	}
}

func (s *Store) publishGaugesLocked() {
	metricLiveCaptures.With().Set(float64(len(s.entries)))
	metricLiveBytes.With().Set(float64(s.liveBytes))
}

// Get returns a capture's metadata and raw bytes by ID, bumping its
// recency. Callers must treat the raw slice as read-only.
func (s *Store) Get(id string) (Capture, []byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[id]
	if e == nil {
		return Capture{}, nil, false
	}
	s.nextSeq++
	e.meta.Seq = s.nextSeq
	return e.meta, e.raw, true
}

// List returns every resident capture's metadata, most recent first.
func (s *Store) List() []Capture {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Capture, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e.meta)
	}
	// Highest seq first; seqs are unique so the order is total.
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out
}

// Len returns the resident capture count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
