package forensic

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"safesense/internal/sim"
)

// segRecord is the segment line layout, kept here so the tests pin it.
type segRecord struct {
	Op      string   `json:"op"`
	Hash    string   `json:"hash"`
	Capture *Capture `json:"capture,omitempty"`
}

// Segment record op and file naming, as the store writes them.
const (
	opPut     = "put"
	segPrefix = "seg-"
	segSuffix = ".jsonl"
)

// putCapture stores a test capture and returns its hash, failing the
// test on error or unexpected dedup.
func putCapture(t *testing.T, s *Store, c Capture, wantStored bool) string {
	t.Helper()
	hash, stored, err := s.Put(c)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if stored != wantStored {
		t.Fatalf("Put stored=%v, want %v", stored, wantStored)
	}
	return hash
}

func TestStorePutGetDedup(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	c := testCapture(1)
	h1 := putCapture(t, s, c, true)

	// Identical content dedups even when metadata differs.
	dup := testCapture(1)
	dup.Campaign = "c777777"
	h2 := putCapture(t, s, dup, false)
	if h1 != h2 {
		t.Fatalf("dedup returned different hash: %s vs %s", h2, h1)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after dedup, want 1", s.Len())
	}

	got, ok := s.Get(h1)
	if !ok {
		t.Fatalf("Get(%s) missing", h1)
	}
	if got.Seed != c.Seed || got.Campaign != c.Campaign {
		t.Fatalf("Get returned %+v, want the first-put capture", got)
	}
	if _, ok := s.Get("no-such-hash"); ok {
		t.Fatal("Get of unknown hash succeeded")
	}

	if _, _, err := s.Put(Capture{Schema: CaptureSchema}); err == nil {
		t.Fatal("Put of invalid capture succeeded")
	}
}

func TestStoreEvictionPriority(t *testing.T) {
	// Budget sized for roughly three captures: low-priority kinds must
	// be evicted first, the collision must survive.
	probe, _ := json.Marshal(segRecord{Op: opPut, Hash: "x", Capture: func() *Capture { c := testCapture(0); return &c }()})
	budget := int64(3*len(probe) + 200)
	s, err := Open(Options{BudgetBytes: budget})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	collision := putCapture(t, s, testCapture(1, sim.AnomalyCollision), true)
	manual := putCapture(t, s, testCapture(2, KindManual), true)
	fp := putCapture(t, s, testCapture(3, sim.AnomalyFalsePositive), true)
	putCapture(t, s, testCapture(4, sim.AnomalyFalseNegative), true)
	putCapture(t, s, testCapture(5, sim.AnomalyFalseNegative), true)

	if live, _ := storeBytes(s); live > budget {
		t.Fatalf("live bytes %d over budget %d", live, budget)
	}
	if _, ok := s.Get(collision); !ok {
		t.Error("collision capture evicted before lower-priority kinds")
	}
	if _, ok := s.Get(manual); ok {
		t.Error("manual capture survived while the store was over budget")
	}
	if _, ok := s.Get(fp); ok {
		t.Error("false_positive survived ahead of higher-priority captures")
	}
}

func TestStoreEvictionRecency(t *testing.T) {
	probe, _ := json.Marshal(segRecord{Op: opPut, Hash: "x", Capture: func() *Capture { c := testCapture(0); return &c }()})
	budget := int64(2*len(probe) + 150)
	s, err := Open(Options{BudgetBytes: budget})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	// Equal priority: the least recently touched capture is the victim.
	first := putCapture(t, s, testCapture(1), true)
	second := putCapture(t, s, testCapture(2), true)
	if _, ok := s.Get(first); !ok { // bump first's recency above second's
		t.Fatal("first capture missing before eviction")
	}
	putCapture(t, s, testCapture(3), true)

	if _, ok := s.Get(first); !ok {
		t.Error("recently-read capture was evicted")
	}
	if _, ok := s.Get(second); ok {
		t.Error("least-recently-used capture survived")
	}
}

func TestStorePersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	h1 := putCapture(t, s, testCapture(1), true)
	h2 := putCapture(t, s, testCapture(2, sim.AnomalyFalsePositive), true)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", s2.Len())
	}
	for _, h := range []string{h1, h2} {
		if _, ok := s2.Get(h); !ok {
			t.Errorf("capture %s lost across reopen", h)
		}
	}
	// A reopened store still dedups against replayed content.
	putCapture(t, s2, testCapture(1), false)
}

// TestStoreReplayDuplicatePut: a put present in two segments (kept on
// purpose by an interrupted compaction, or left by a failed removal)
// replays as one resident capture counted once.
func TestStoreReplayDuplicatePut(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	h := putCapture(t, s, testCapture(1), true)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	seg := filepath.Join(dir, fmt.Sprintf("%s%06d%s", segPrefix, 1, segSuffix))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("reading segment: %v", err)
	}
	copySeg := filepath.Join(dir, fmt.Sprintf("%s%06d%s", segPrefix, 7, segSuffix))
	if err := os.WriteFile(copySeg, data, 0o644); err != nil {
		t.Fatalf("copying segment: %v", err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1", s2.Len())
	}
	live, dead := storeBytes(s2)
	if it, _ := s2.idx.Get(h); live != it.Bytes {
		t.Fatalf("live bytes = %d, want the one entry's %d", live, it.Bytes)
	}
	if want := int64(len(data)); dead != want {
		t.Fatalf("dead bytes = %d, want the duplicate line's %d", dead, want)
	}
}

func TestStoreEvictTombstoneSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	probe, _ := json.Marshal(segRecord{Op: opPut, Hash: "x", Capture: func() *Capture { c := testCapture(0); return &c }()})
	budget := int64(2*len(probe) + 150)
	s, err := Open(Options{Dir: dir, BudgetBytes: budget})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	evicted := putCapture(t, s, testCapture(1, KindManual), true)
	putCapture(t, s, testCapture(2, sim.AnomalyCollision), true)
	kept := putCapture(t, s, testCapture(3, sim.AnomalyCollision), true)
	if _, ok := s.Get(evicted); ok {
		t.Fatal("manual capture should have been evicted in-process")
	}
	_, dead := storeBytes(s)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(Options{Dir: dir, BudgetBytes: budget})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if _, ok := s2.Get(evicted); ok {
		t.Error("evicted capture resurrected on reopen (tombstone ignored)")
	}
	if _, ok := s2.Get(kept); !ok {
		t.Error("live capture lost on reopen")
	}
	// Replay counts the evicted put and its tombstone line as dead, as
	// eviction did at runtime.
	if _, got := storeBytes(s2); got != dead {
		t.Errorf("replayed dead bytes = %d, want the runtime %d", got, dead)
	}
}

func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	// A budget small enough that repeated put/evict churn crosses the
	// compaction thresholds (deadBytes > budget/2 and >= 64KiB).
	probe, _ := json.Marshal(segRecord{Op: opPut, Hash: "x", Capture: func() *Capture { c := testCapture(0); return &c }()})
	per := int64(len(probe) + 1)
	budget := 4 * per
	s, err := Open(Options{Dir: dir, BudgetBytes: budget})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Churn enough distinct captures that dead bytes dominate.
	n := int((1<<16)/per) + 8
	for i := 0; i < n; i++ {
		putCapture(t, s, testCapture(int64(i+1)), true)
	}
	files, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	var disk int64
	for _, f := range files {
		fi, err := fileSize(f)
		if err != nil {
			t.Fatalf("stat %s: %v", f, err)
		}
		disk += fi
	}
	// Compaction keeps disk bounded near the live set, far below the
	// total churn volume (n * per).
	if disk > 4*budget+(1<<16)+int64(len(probe)) {
		t.Fatalf("segments hold %d bytes after churn of %d captures; compaction did not run", disk, n)
	}
	live := s.Len()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(Options{Dir: dir, BudgetBytes: budget})
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer s2.Close()
	if s2.Len() != live {
		t.Fatalf("reopened Len = %d, want %d", s2.Len(), live)
	}
}

func TestStoreListFiltersAndPaging(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	for i := 0; i < 6; i++ {
		c := testCapture(int64(i + 1))
		if i%2 == 1 {
			c.Attack = "delay"
			c.Kinds = []string{sim.AnomalyFalsePositive}
			c.Campaign = "c000002"
		}
		putCapture(t, s, c, true)
	}

	all, total := s.List(Query{})
	if total != 6 || len(all) != 6 {
		t.Fatalf("List all = %d/%d, want 6/6", len(all), total)
	}
	// Most recent first: the last put leads.
	if all[0].Seed != 6 {
		t.Errorf("List order: first seed = %d, want 6 (most recent)", all[0].Seed)
	}

	byKind, total := s.List(Query{Kind: sim.AnomalyFalsePositive})
	if total != 3 || len(byKind) != 3 {
		t.Fatalf("kind filter = %d/%d, want 3/3", len(byKind), total)
	}
	byAttack, _ := s.List(Query{Attack: "delay"})
	if len(byAttack) != 3 {
		t.Fatalf("attack filter = %d, want 3", len(byAttack))
	}
	byCampaign, _ := s.List(Query{Campaign: "c000002"})
	if len(byCampaign) != 3 {
		t.Fatalf("campaign filter = %d, want 3", len(byCampaign))
	}
	bySpec, _ := s.List(Query{SpecHash: "spec-abc"})
	if len(bySpec) != 6 {
		t.Fatalf("spec filter = %d, want 6", len(bySpec))
	}
	none, total := s.List(Query{Campaign: "missing"})
	if len(none) != 0 || total != 0 {
		t.Fatalf("no-match query = %d/%d, want 0/0", len(none), total)
	}

	page, total := s.List(Query{Offset: 2, Limit: 2})
	if total != 6 || len(page) != 2 {
		t.Fatalf("page = %d/%d, want 2 of 6", len(page), total)
	}
	if page[0].Seed != 4 || page[1].Seed != 3 {
		t.Errorf("page seeds = %d,%d, want 4,3", page[0].Seed, page[1].Seed)
	}
	past, total := s.List(Query{Offset: 100})
	if total != 6 || len(past) != 0 {
		t.Fatalf("past-the-end page = %d/%d, want 0 of 6", len(past), total)
	}
}

// fileSize returns a file's size on disk.
func fileSize(name string) (int64, error) {
	fi, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// TestStoreReplaysPinnedSegments replays a segment directory written by
// an earlier build, pinning the on-disk format. seg-000001 holds the
// puts of captures 1 (collision) and 2 (manual); seg-000002 holds the
// put of capture 3, the tombstone that evicted capture 2, and a second
// copy of capture 1's put line.
func TestStoreReplaysPinnedSegments(t *testing.T) {
	const (
		hash1 = "fc107df9025d6ba1dd6706e4cf6df7277f7917d5df7222e19ba8c0cbd6b88537"
		hash2 = "8aa29f65934d3aba28ac91d80c235c4a19aba61dcc118c7ee36b0ca7fa47a13c"
		hash3 = "b3405f7b1ac0f3ffee879a4a8c5f0daf7f9e52fd5f761f008c0520fc5811917e"
	)
	// Open appends a fresh segment, so replay a copy, never testdata.
	dir := t.TempDir()
	for _, name := range []string{"seg-000001.jsonl", "seg-000002.jsonl"} {
		data, err := os.ReadFile(filepath.Join("testdata", "segments", name))
		if err != nil {
			t.Fatalf("reading fixture: %v", err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatalf("copying fixture: %v", err)
		}
	}
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	// The duplicate put made capture 1 the most recent.
	metas, total := s.List(Query{})
	if total != 2 || len(metas) != 2 || metas[0].Hash != hash1 || metas[1].Hash != hash3 {
		t.Fatalf("List = %+v (total %d), want [%s %s]", metas, total, hash1, hash3)
	}
	if metas[0].Seed != 1 || metas[1].Seed != 3 || metas[0].Bytes != 688 || metas[1].Bytes != 688 {
		t.Errorf("replayed metadata = %+v", metas)
	}
	if _, ok := s.Get(hash2); ok {
		t.Error("tombstoned capture resurrected")
	}
	for _, h := range []string{hash1, hash3} {
		c, ok := s.Get(h)
		if !ok {
			t.Fatalf("Get(%s) missing", h)
		}
		if got, err := c.Hash(); err != nil || got != h {
			t.Errorf("replayed capture rehashes to %s (err %v), want %s", got, err, h)
		}
	}
	// Live: the two resident put lines. Dead: capture 2's put, its
	// tombstone and the duplicate put of capture 1.
	if live, dead := storeBytes(s); live != 688+688 || dead != 682+89+688 {
		t.Errorf("live, dead bytes = %d, %d, want %d, %d", live, dead, 688+688, 682+89+688)
	}
}

// storeBytes returns the store's live and dead segment byte counts.
func storeBytes(s *Store) (live, dead int64) {
	return s.idx.Bytes()
}

// TestStoreOverBudgetCapture: a capture larger than the whole budget is
// stored as new and evicted at once, leaving the store empty.
func TestStoreOverBudgetCapture(t *testing.T) {
	s, err := Open(Options{BudgetBytes: 10})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	putCapture(t, s, testCapture(1), true)
	if s.Len() != 0 {
		t.Fatalf("Len = %d after an over-budget put, want 0", s.Len())
	}
	if got := metricLiveBytes.With().Value(); got != 0 {
		t.Fatalf("live-bytes gauge = %v, want 0", got)
	}
}
