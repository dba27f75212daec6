package castore

import (
	"os"
	"path/filepath"
	"testing"

	"safesense/internal/obs"
)

// TestReplaySkipsCorruptLines: bad JSON, unknown ops, valueless puts,
// puts Valid rejects and a truncated tail are skipped; the valid
// records around them still replay, and the next Put opens a fresh
// segment after the replayed ones.
func TestReplaySkipsCorruptLines(t *testing.T) {
	dir := t.TempDir()
	seg := `{"op":"put","hash":"a","capture":1}
not json
{"op":"flush","hash":"a"}
{"op":"put","hash":"b"}
{"op":"put","hash":"bad","capture":2}
{"op":"put","hash":"c","capture":3}
{"op":"put","hash":"trunc","capt`
	if err := os.WriteFile(filepath.Join(dir, "seg-000001.jsonl"), []byte(seg), 0o644); err != nil {
		t.Fatal(err)
	}
	gauge := obs.NewRegistry().Gauge("castore_test", "Test gauge.").With()
	s, err := Open(Config[int]{
		Dir: dir, Budget: 1 << 20, Live: gauge, LiveBytes: gauge,
		Valid: func(k string, _ int) bool { return k != "bad" },
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	items := s.List(nil)
	if len(items) != 2 || items[0].Key != "c" || items[0].Value != 3 || items[1].Key != "a" {
		t.Fatalf("replayed List = %+v, want c then a", items)
	}
	if _, fresh, err := s.Put("d", 4); !fresh || err != nil {
		t.Fatalf("Put after replay: fresh %v, err %v", fresh, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-000002.jsonl")); err != nil {
		t.Fatalf("no fresh segment: %v", err)
	}
}
