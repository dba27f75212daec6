// Package castore is the bounded content-addressed store under the
// forensic and profile capture stores. Over budget it evicts the
// lowest (priority, recency) value first. Recency is a logical
// sequence counter, never wall time, so eviction and listing order are
// reproducible across nodes and restarts. With a directory the store
// also keeps a JSONL log of puts and eviction tombstones in
// seg-NNNNNN.jsonl segments, replayed by Open and compacted once dead
// lines dominate.
package castore

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"safesense/internal/obs"
)

// Segment files are seg-000001.jsonl, ...; replay order is the
// lexicographic file order, then line order. maxLine bounds one line
// on replay, far above any record a caller's validation lets in.
const (
	segPrefix = "seg-"
	segSuffix = ".jsonl"
	maxLine   = 16 << 20
)

// Config builds a Store.
type Config[V any] struct {
	// Name prefixes errors and log messages ("forensic", "profile").
	Name string
	// Dir is the segment directory; empty keeps the store in memory.
	Dir string
	// Budget bounds the bytes of the resident values.
	Budget int64
	// Log receives store lifecycle records (nil discards).
	Log *slog.Logger
	// Size is the bytes a value counts against Budget. Nil counts its
	// encoded put line, as a persisted store must.
	Size func(V) int64
	// Priority is a value's eviction tier: lower tiers go first. Nil
	// ranks every value equal.
	Priority func(V) int
	// Valid vets a replayed put against its key; false skips the line
	// as corrupt.
	Valid func(key string, v V) bool
	// Evicted (required) observes each value dropped under budget
	// pressure.
	Evicted func(v V)
	// Live and LiveBytes (required) gauge the resident count and bytes.
	Live, LiveBytes *obs.Gauge
}

// Item is one resident value as the store reports it.
type Item[V any] struct {
	Key   string
	Value V
	// Bytes is what the value counts against the budget.
	Bytes int64
	// Seq is the logical recency: higher is more recently put or read.
	Seq uint64
}

// entry is one resident value plus its eviction tier.
type entry[V any] struct {
	Item[V]
	priority int
}

// record is one segment line: a put or an eviction tombstone. The
// value's JSON key is "capture" so forensic segments written before
// this package existed still replay.
type record[V any] struct {
	Op    string `json:"op"` // "put" | "evict"
	Hash  string `json:"hash"`
	Value *V     `json:"capture,omitempty"`
}

const (
	opPut   = "put"
	opEvict = "evict"
)

// Store is a content-addressed, budget-bounded value store. All
// methods are safe for concurrent use.
type Store[V any] struct {
	cfg Config[V]

	mu      sync.Mutex
	entries map[string]*entry[V]
	live    int64
	dead    int64 // bytes of evicted puts and tombstones still on disk
	nextSeq uint64

	seg   *os.File
	segID int
}

// Open builds a store, replaying any segments in cfg.Dir (created when
// missing).
func Open[V any](cfg Config[V]) (*Store[V], error) {
	if cfg.Log == nil {
		cfg.Log = slog.New(obs.DiscardHandler{})
	}
	s := &Store[V]{cfg: cfg, entries: make(map[string]*entry[V])}
	if cfg.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("%s: creating store dir: %w", cfg.Name, err)
	}
	if err := s.replay(); err != nil {
		return nil, err
	}
	if err := s.openSegmentLocked(); err != nil {
		return nil, err
	}
	s.publishLocked()
	return s, nil
}

// Close releases the active segment file (a no-op in memory). The
// store must not be used after Close.
func (s *Store[V]) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil {
		return nil
	}
	err := s.seg.Close()
	s.seg = nil
	return err
}

// segFiles lists the segment files in replay order.
func (s *Store[V]) segFiles() ([]string, error) {
	names, err := filepath.Glob(filepath.Join(s.cfg.Dir, segPrefix+"*"+segSuffix))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// replay rebuilds the index from the segment log. Corrupt or stale
// lines (bad JSON, unknown ops, puts Valid rejects) are skipped and
// counted: a partially-written tail after a crash must not brick the
// store.
func (s *Store[V]) replay() error {
	files, err := s.segFiles()
	if err != nil {
		return err
	}
	corrupt := 0
	for _, name := range files {
		id, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(name), segPrefix), segSuffix))
		if err == nil && id > s.segID {
			s.segID = id
		}
		f, err := os.Open(name)
		if err != nil {
			return fmt.Errorf("%s: opening segment %s: %w", s.cfg.Name, name, err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), maxLine)
		for sc.Scan() {
			if line := sc.Bytes(); len(line) > 0 && !s.replayLine(line) {
				corrupt++
			}
		}
		closeErr := f.Close()
		if err := sc.Err(); err != nil {
			corrupt++
			s.cfg.Log.Warn(s.cfg.Name+" segment truncated", "file", name, "error", err.Error())
		}
		if closeErr != nil {
			return closeErr
		}
	}
	if corrupt > 0 {
		s.cfg.Log.Warn(s.cfg.Name+" replay skipped corrupt records", "records", corrupt)
	}
	s.cfg.Log.Info(s.cfg.Name+" store replayed",
		"captures", len(s.entries), "live_bytes", s.live, "segments", len(files))
	return nil
}

// replayLine applies one segment line, reporting false when it is
// corrupt.
func (s *Store[V]) replayLine(line []byte) bool {
	var rec record[V]
	if err := json.Unmarshal(line, &rec); err != nil {
		return false
	}
	size := int64(len(line) + 1)
	switch rec.Op {
	case opPut:
		if rec.Value == nil || (s.cfg.Valid != nil && !s.cfg.Valid(rec.Hash, *rec.Value)) {
			return false
		}
		if e := s.entries[rec.Hash]; e != nil {
			// A second copy of a resident value (an interrupted
			// compaction, or a segment whose removal failed): its line
			// is dead; the later copy is the more recent, as a re-Put
			// would make it.
			s.touchLocked(e)
			s.dead += size
			return true
		}
		s.insertLocked(rec.Hash, *rec.Value, size)
	case opEvict:
		// The tombstone's own line is dead, as in evictLocked.
		s.dead += size
		if e := s.entries[rec.Hash]; e != nil {
			s.live -= e.Bytes
			s.dead += e.Bytes
			delete(s.entries, rec.Hash)
		}
	default:
		return false
	}
	return true
}

// openSegmentLocked starts a fresh active segment.
func (s *Store[V]) openSegmentLocked() error {
	s.segID++
	name := filepath.Join(s.cfg.Dir, fmt.Sprintf("%s%06d%s", segPrefix, s.segID, segSuffix))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("%s: opening segment: %w", s.cfg.Name, err)
	}
	s.seg = f
	return nil
}

// touchLocked makes e the most recent value.
func (s *Store[V]) touchLocked(e *entry[V]) {
	s.nextSeq++
	e.Seq = s.nextSeq
}

// insertLocked adds one value to the in-memory index (no disk IO, no
// gauges; shared by Put and replay).
func (s *Store[V]) insertLocked(key string, v V, bytes int64) *entry[V] {
	s.nextSeq++
	e := &entry[V]{Item: Item[V]{Key: key, Value: v, Bytes: bytes, Seq: s.nextSeq}}
	if s.cfg.Priority != nil {
		e.priority = s.cfg.Priority(v)
	}
	s.entries[key] = e
	s.live += bytes
	return e
}

// Put stores v under key, returning the resident item and whether it
// was new. A key already resident is a dedup hit: v is dropped and the
// resident item's recency refreshed. A new value may push the store
// over budget; the lowest (priority, recency) values, possibly this
// one, are then evicted until it fits.
func (s *Store[V]) Put(key string, v V) (Item[V], bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[key]; e != nil {
		s.touchLocked(e)
		return e.Item, false, nil
	}
	var line []byte
	if s.seg != nil || s.cfg.Size == nil {
		var err error
		if line, err = json.Marshal(record[V]{Op: opPut, Hash: key, Value: &v}); err != nil {
			return Item[V]{}, false, fmt.Errorf("%s: encoding value: %w", s.cfg.Name, err)
		}
	}
	size := int64(len(line) + 1)
	if s.cfg.Size != nil {
		size = s.cfg.Size(v)
	}
	if err := s.appendLocked(line); err != nil {
		return Item[V]{}, false, err
	}
	it := s.insertLocked(key, v, size).Item
	err := s.evictLocked()
	if err == nil {
		s.maybeCompactLocked()
	}
	s.publishLocked()
	return it, true, err
}

// appendLocked writes one record line to the active segment (a no-op
// in memory).
func (s *Store[V]) appendLocked(line []byte) error {
	if s.seg == nil {
		return nil
	}
	if _, err := s.seg.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("%s: appending segment: %w", s.cfg.Name, err)
	}
	return nil
}

// evictLocked drops values while the store is over budget, lowest
// (priority, seq) first, logging a tombstone per victim.
func (s *Store[V]) evictLocked() error {
	for s.live > s.cfg.Budget && len(s.entries) > 0 {
		var victim *entry[V]
		for _, e := range s.entries {
			if victim == nil || e.priority < victim.priority ||
				(e.priority == victim.priority && e.Seq < victim.Seq) {
				victim = e
			}
		}
		if s.seg != nil {
			// A tombstone carries no value, so encoding cannot fail.
			line, _ := json.Marshal(record[V]{Op: opEvict, Hash: victim.Key})
			if err := s.appendLocked(line); err != nil {
				return err
			}
			s.dead += victim.Bytes + int64(len(line)+1)
		}
		delete(s.entries, victim.Key)
		s.live -= victim.Bytes
		s.cfg.Evicted(victim.Value)
		s.cfg.Log.Debug(s.cfg.Name+" capture evicted", "hash", victim.Key, "bytes", victim.Bytes)
	}
	return nil
}

// maybeCompactLocked rewrites the live set into a fresh segment once
// dead bytes dominate, then removes the older segments. Compaction is
// best-effort: a failure leaves the old segments in place and replay
// still rebuilds the same index.
func (s *Store[V]) maybeCompactLocked() {
	if s.seg == nil || s.dead <= s.cfg.Budget/2 || s.dead < 1<<16 {
		return
	}
	old, err := s.segFiles()
	if err != nil {
		return
	}
	live := s.newestLocked(nil)
	prevSeg := s.seg
	if err := s.openSegmentLocked(); err != nil {
		s.seg = prevSeg
		return
	}
	prevSeg.Close()
	// Rewrite oldest first so recency survives a replay.
	for i := len(live) - 1; i >= 0; i-- {
		line, err := json.Marshal(record[V]{Op: opPut, Hash: live[i].Key, Value: &live[i].Value})
		if err != nil || s.appendLocked(line) != nil {
			// Leave every file in place: puts are idempotent by key, so
			// a replay over old and partial new segments converges.
			s.cfg.Log.Warn(s.cfg.Name + " compaction incomplete; keeping old segments")
			return
		}
	}
	for _, name := range old {
		_ = os.Remove(name)
	}
	s.dead = 0
	s.cfg.Log.Info(s.cfg.Name+" store compacted",
		"captures", len(live), "live_bytes", s.live, "segments_removed", len(old))
}

// newestLocked returns the resident items keep accepts (nil keeps
// all), most recent first. Seqs are unique, so the order is total.
func (s *Store[V]) newestLocked(keep func(v V) bool) []Item[V] {
	out := make([]Item[V], 0, len(s.entries))
	for _, e := range s.entries {
		if keep == nil || keep(e.Value) {
			out = append(out, e.Item)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out
}

// publishLocked refreshes the resident-size gauges.
func (s *Store[V]) publishLocked() {
	s.cfg.Live.Set(float64(len(s.entries)))
	s.cfg.LiveBytes.Set(float64(s.live))
}

// Get returns the item stored under key, bumping its recency. Callers
// must treat the value's slices as read-only.
func (s *Store[V]) Get(key string) (Item[V], bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil {
		return Item[V]{}, false
	}
	s.touchLocked(e)
	return e.Item, true
}

// List returns the resident items keep accepts (nil keeps all), most
// recent first.
func (s *Store[V]) List(keep func(v V) bool) []Item[V] {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.newestLocked(keep)
}

// Len returns the resident value count.
func (s *Store[V]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bytes returns the resident bytes and the dead bytes (evicted puts
// and tombstones) the segments still hold.
func (s *Store[V]) Bytes() (live, dead int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live, s.dead
}
