package profile

import (
	"testing"
	"time"
)

func TestStorePutGetDedup(t *testing.T) {
	fixed := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	old := clock
	clock = func() time.Time { return fixed }
	defer func() { clock = old }()

	s := NewStore(StoreOptions{})
	raw := testCapture().MarshalGzip()
	meta, fresh := s.Put(raw, "cpu", int64(10*time.Second), nil)
	if !fresh {
		t.Fatal("first Put reported dedup")
	}
	if len(meta.ID) != 64 || meta.Seq != 1 || meta.Kind != "cpu" || meta.Bytes != len(raw) {
		t.Fatalf("capture meta = %+v", meta)
	}
	if !meta.CapturedAt.Equal(fixed) {
		t.Fatalf("CapturedAt = %v, want the injected clock", meta.CapturedAt)
	}

	again, fresh := s.Put(raw, "cpu", int64(10*time.Second), nil)
	if fresh {
		t.Fatal("identical capture not deduped")
	}
	if again.ID != meta.ID || again.Seq <= meta.Seq {
		t.Fatalf("dedup must refresh recency: %+v vs %+v", again, meta)
	}
	if live, _ := s.idx.Bytes(); s.Len() != 1 || live != int64(len(raw)) {
		t.Fatalf("len=%d bytes=%d", s.Len(), live)
	}

	got, rawBack, ok := s.Get(meta.ID)
	if !ok || got.ID != meta.ID || len(rawBack) != len(raw) {
		t.Fatalf("Get = %+v ok=%v", got, ok)
	}
	if _, _, ok := s.Get("no-such-id"); ok {
		t.Fatal("Get invented a capture")
	}
}

func TestStoreEvictsOldestFirst(t *testing.T) {
	s := NewStore(StoreOptions{BudgetBytes: 250})
	mk := func(fill byte) []byte {
		b := make([]byte, 100)
		for i := range b {
			b[i] = fill
		}
		return b
	}
	a, _ := s.Put(mk(1), "cpu", 0, nil)
	b, _ := s.Put(mk(2), "cpu", 0, nil)
	// Touch a so b becomes the eviction victim.
	if _, _, ok := s.Get(a.ID); !ok {
		t.Fatal("capture a vanished early")
	}
	c, _ := s.Put(mk(3), "cpu", 0, nil) // 300 bytes resident -> evict lowest seq (b)
	if _, _, ok := s.Get(b.ID); ok {
		t.Fatal("least recently touched capture survived eviction")
	}
	for _, id := range []string{a.ID, c.ID} {
		if _, _, ok := s.Get(id); !ok {
			t.Fatalf("capture %s evicted out of order", id)
		}
	}
	if live, _ := s.idx.Bytes(); live > 250 {
		t.Fatalf("live bytes %d over budget", live)
	}
}

func TestStoreListNewestFirst(t *testing.T) {
	s := NewStore(StoreOptions{})
	s.Put([]byte("one"), "cpu", 0, nil)
	s.Put([]byte("two"), "cpu", 0, nil)
	s.Put([]byte("three"), "cpu", 0, nil)
	list := s.List()
	if len(list) != 3 {
		t.Fatalf("len = %d", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].Seq <= list[i].Seq {
			t.Fatalf("list not newest-first: %+v", list)
		}
	}
}

// TestStoreOverBudgetCapture: a capture larger than the whole budget is
// stored as new and evicted at once, leaving the store empty.
func TestStoreOverBudgetCapture(t *testing.T) {
	s := NewStore(StoreOptions{BudgetBytes: 10})
	if _, fresh := s.Put(make([]byte, 11), "cpu", 0, nil); !fresh {
		t.Fatal("over-budget capture reported as a dedup hit")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after an over-budget put, want 0", s.Len())
	}
	if got := metricLiveBytes.With().Value(); got != 0 {
		t.Fatalf("live-bytes gauge = %v, want 0", got)
	}
}
