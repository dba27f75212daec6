package forensic

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"safesense/internal/obs"
)

// DefaultBudgetBytes is the store's default resident-capture budget.
// Captures are a few KiB each, so the default keeps on the order of
// 10^4 anomalies.
const DefaultBudgetBytes = 64 << 20

// segPrefix/segSuffix name the store's on-disk JSONL segments
// (seg-000001.jsonl, ...). Replay order is the lexicographic file
// order, then line order.
const (
	segPrefix = "seg-"
	segSuffix = ".jsonl"
)

// Options tunes a Store.
type Options struct {
	// Dir is the segment directory. Empty means memory-only: the index
	// works normally but nothing persists.
	Dir string
	// BudgetBytes bounds the encoded bytes of resident captures (zero
	// means DefaultBudgetBytes). When an insert pushes the store over
	// budget, the lowest-(priority, recency) captures are evicted until
	// it fits — so collisions outlive detector confusion, which
	// outlives latency outliers.
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

// entry is one resident capture.
type entry struct {
	capture  Capture
	meta     Meta
	priority int
	bytes    int64
	seq      uint64 // logical recency counter (LRU), not wall time
}

// segRecord is one JSONL segment line: a capture insert or an eviction
// tombstone.
type segRecord struct {
	Op      string   `json:"op"` // "put" | "evict"
	Hash    string   `json:"hash"`
	Capture *Capture `json:"capture,omitempty"`
}

const (
	opPut   = "put"
	opEvict = "evict"
)

// Store is a content-addressed, budget-bounded capture store. All
// methods are safe for concurrent use.
type Store struct {
	opts Options

	mu        sync.Mutex
	entries   map[string]*entry
	liveBytes int64
	deadBytes int64 // bytes of evicted puts + tombstones still on disk
	nextSeq   uint64

	seg      *os.File
	segID    int
	segBytes int64
}

// Open builds a store, replaying any existing segments in opts.Dir
// (which is created when missing). With an empty Dir the store is
// memory-only.
func Open(opts Options) (*Store, error) {
	if opts.BudgetBytes <= 0 {
		opts.BudgetBytes = DefaultBudgetBytes
	}
	if opts.Log == nil {
		opts.Log = slog.New(obs.DiscardHandler{})
	}
	s := &Store{opts: opts, entries: make(map[string]*entry)}
	if opts.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("forensic: creating store dir: %w", err)
	}
	if err := s.replaySegments(); err != nil {
		return nil, err
	}
	if err := s.openSegmentLocked(); err != nil {
		return nil, err
	}
	s.publishGaugesLocked()
	return s, nil
}

// Close releases the active segment file (memory-only stores are a
// no-op). The store must not be used after Close.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil {
		return nil
	}
	err := s.seg.Close()
	s.seg = nil
	return err
}

// segFiles lists the store's segment files in replay order.
func (s *Store) segFiles() ([]string, error) {
	names, err := filepath.Glob(filepath.Join(s.opts.Dir, segPrefix+"*"+segSuffix))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// replaySegments rebuilds the index from the segment log. Corrupt or
// stale lines (bad JSON, bound violations, hash mismatches) are
// skipped and counted — a partially-written tail after a crash must
// not brick the store.
func (s *Store) replaySegments() error {
	files, err := s.segFiles()
	if err != nil {
		return err
	}
	corrupt := 0
	for _, name := range files {
		if id, ok := segFileID(name); ok && id > s.segID {
			s.segID = id
		}
		f, err := os.Open(name)
		if err != nil {
			return fmt.Errorf("forensic: opening segment %s: %w", name, err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 4*(MaxCapturePoint+MaxCaptureFlight*256))
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var rec segRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				corrupt++
				continue
			}
			switch rec.Op {
			case opPut:
				if rec.Capture == nil || ValidateCapture(*rec.Capture) != nil {
					corrupt++
					continue
				}
				hash, err := rec.Capture.Hash()
				if err != nil || hash != rec.Hash {
					corrupt++
					continue
				}
				if e := s.entries[hash]; e != nil {
					// A second copy of a resident capture (an interrupted
					// compaction, or a segment whose removal failed): its
					// line is dead on disk; the later copy is the more
					// recent, as a re-Put would make it.
					s.nextSeq++
					e.seq = s.nextSeq
					s.deadBytes += int64(len(line) + 1)
					continue
				}
				s.insertLocked(hash, *rec.Capture, int64(len(line)+1))
			case opEvict:
				// The tombstone's own line is dead, as in evictLocked.
				s.deadBytes += int64(len(line) + 1)
				if e := s.entries[rec.Hash]; e != nil {
					s.liveBytes -= e.bytes
					s.deadBytes += e.bytes
					delete(s.entries, rec.Hash)
				}
			default:
				corrupt++
			}
		}
		closeErr := f.Close()
		if err := sc.Err(); err != nil {
			corrupt++
			s.opts.Log.Warn("forensic segment truncated", "file", name, "error", err.Error())
		}
		if closeErr != nil {
			return closeErr
		}
	}
	if corrupt > 0 {
		s.opts.Log.Warn("forensic replay skipped corrupt records", "records", corrupt)
	}
	s.opts.Log.Info("forensic store replayed",
		"captures", len(s.entries), "live_bytes", s.liveBytes, "segments", len(files))
	return nil
}

// segFileID parses a segment file's numeric ID.
func segFileID(name string) (int, bool) {
	base := filepath.Base(name)
	base = strings.TrimPrefix(base, segPrefix)
	base = strings.TrimSuffix(base, segSuffix)
	id := 0
	for i := 0; i < len(base); i++ {
		c := base[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		id = id*10 + int(c-'0')
	}
	return id, len(base) > 0
}

// openSegmentLocked starts a fresh active segment.
func (s *Store) openSegmentLocked() error {
	s.segID++
	name := filepath.Join(s.opts.Dir, fmt.Sprintf("%s%06d%s", segPrefix, s.segID, segSuffix))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("forensic: opening segment: %w", err)
	}
	s.seg = f
	s.segBytes = 0
	return nil
}

// insertLocked adds one capture to the in-memory index (no disk IO,
// no metrics — shared by Put and replay).
func (s *Store) insertLocked(hash string, c Capture, bytes int64) *entry {
	s.nextSeq++
	e := &entry{
		capture: c,
		meta: Meta{
			Hash:     hash,
			SpecHash: c.SpecHash,
			Campaign: c.Campaign,
			JobIndex: c.JobIndex,
			Seed:     c.Seed,
			Label:    c.Label,
			Attack:   c.Attack,
			Kinds:    c.Kinds,
			Bytes:    int(bytes),
		},
		priority: capturePriority(c),
		bytes:    bytes,
		seq:      s.nextSeq,
	}
	s.entries[hash] = e
	s.liveBytes += bytes
	return e
}

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
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[hash]; e != nil {
		// Refresh recency: a re-observed anomaly is a hot one.
		s.nextSeq++
		e.seq = s.nextSeq
		metricDuplicates.With().Inc()
		return hash, false, nil
	}
	line, err := json.Marshal(segRecord{Op: opPut, Hash: hash, Capture: &c})
	if err != nil {
		return "", false, fmt.Errorf("forensic: encoding capture: %w", err)
	}
	if err := s.appendLocked(line); err != nil {
		return "", false, err
	}
	s.insertLocked(hash, c, int64(len(line)+1))
	metricCaptures.With(kindLabel(PrimaryKind(c))).Inc()
	if err := s.evictLocked(); err != nil {
		return hash, true, err
	}
	s.maybeCompactLocked()
	s.publishGaugesLocked()
	return hash, true, nil
}

// appendLocked writes one record line to the active segment (no-op
// when memory-only).
func (s *Store) appendLocked(line []byte) error {
	if s.seg == nil {
		return nil
	}
	if _, err := s.seg.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("forensic: appending segment: %w", err)
	}
	s.segBytes += int64(len(line) + 1)
	return nil
}

// evictLocked drops captures while the store is over budget, lowest
// (priority, seq) first, writing a tombstone per victim.
func (s *Store) evictLocked() error {
	for s.liveBytes > s.opts.BudgetBytes && len(s.entries) > 0 {
		var victim *entry
		for _, e := range s.entries {
			if victim == nil || e.priority < victim.priority ||
				(e.priority == victim.priority && e.seq < victim.seq) {
				victim = e
			}
		}
		line, err := json.Marshal(segRecord{Op: opEvict, Hash: victim.meta.Hash})
		if err != nil {
			return err
		}
		if err := s.appendLocked(line); err != nil {
			return err
		}
		delete(s.entries, victim.meta.Hash)
		s.liveBytes -= victim.bytes
		s.deadBytes += victim.bytes + int64(len(line)+1)
		metricEvictions.With(kindLabel(PrimaryKind(victim.capture))).Inc()
		s.opts.Log.Debug("forensic capture evicted",
			"hash", victim.meta.Hash, "kind", PrimaryKind(victim.capture), "bytes", victim.bytes)
	}
	return nil
}

// maybeCompactLocked rewrites the live set into a fresh segment once
// dead bytes (evicted puts plus tombstones) dominate, then removes the
// older segments. Compaction is best-effort: a failure leaves the old
// segments in place and replay still reconstructs the same index.
func (s *Store) maybeCompactLocked() {
	if s.seg == nil || s.deadBytes <= s.opts.BudgetBytes/2 || s.deadBytes < 1<<16 {
		return
	}
	old, err := s.segFiles()
	if err != nil {
		return
	}
	live := make([]*entry, 0, len(s.entries))
	for _, e := range s.entries {
		live = append(live, e)
	}
	// Rewrite in seq order so recency survives a replay.
	sort.Slice(live, func(i, j int) bool { return live[i].seq < live[j].seq })
	prevSeg := s.seg
	if err := s.openSegmentLocked(); err != nil {
		s.seg = prevSeg
		return
	}
	prevSeg.Close()
	ok := true
	for _, e := range live {
		line, err := json.Marshal(segRecord{Op: opPut, Hash: e.meta.Hash, Capture: &e.capture})
		if err != nil || s.appendLocked(line) != nil {
			ok = false
			break
		}
	}
	if !ok {
		// Leave every file in place: puts are idempotent by hash, so a
		// replay over old + partial new segments converges anyway.
		s.opts.Log.Warn("forensic compaction incomplete; keeping old segments")
		return
	}
	for _, name := range old {
		_ = os.Remove(name)
	}
	s.deadBytes = 0
	s.opts.Log.Info("forensic store compacted",
		"captures", len(live), "live_bytes", s.liveBytes, "segments_removed", len(old))
}

// publishGaugesLocked refreshes the resident-size gauges.
func (s *Store) publishGaugesLocked() {
	metricLiveCaptures.With().Set(float64(len(s.entries)))
	metricLiveBytes.With().Set(float64(s.liveBytes))
}

// Get returns a stored capture by content hash, bumping its recency.
// Callers must treat the capture's slices as read-only.
func (s *Store) Get(hash string) (Capture, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[hash]
	if e == nil {
		return Capture{}, false
	}
	s.nextSeq++
	e.seq = s.nextSeq
	return e.capture, true
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

// matches reports whether an entry satisfies the query filters.
func (q Query) matches(e *entry) bool {
	if q.Campaign != "" && e.meta.Campaign != q.Campaign {
		return false
	}
	if q.Attack != "" && e.meta.Attack != q.Attack {
		return false
	}
	if q.SpecHash != "" && e.meta.SpecHash != q.SpecHash {
		return false
	}
	if q.Kind != "" {
		for _, k := range e.meta.Kinds {
			if k == q.Kind {
				return true
			}
		}
		return false
	}
	return true
}

// List returns the matching captures' metadata, most recent first,
// plus the total match count before Offset/Limit paging.
func (s *Store) List(q Query) ([]Meta, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	matched := make([]*entry, 0, len(s.entries))
	for _, e := range s.entries {
		if q.matches(e) {
			matched = append(matched, e)
		}
	}
	sort.Slice(matched, func(i, j int) bool { return matched[i].seq > matched[j].seq })
	total := len(matched)
	if q.Offset > 0 {
		if q.Offset >= len(matched) {
			matched = nil
		} else {
			matched = matched[q.Offset:]
		}
	}
	if q.Limit > 0 && len(matched) > q.Limit {
		matched = matched[:q.Limit]
	}
	out := make([]Meta, len(matched))
	for i, e := range matched {
		out[i] = e.meta
	}
	return out, total
}

// Len returns the resident capture count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
