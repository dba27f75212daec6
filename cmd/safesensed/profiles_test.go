package main

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"safesense/internal/obs/profile"
)

// testCapture stores the checked-in CPU capture with its phase shares
// and returns the capture's metadata and raw bytes.
func testCapture(t *testing.T, store *profile.Store) (profile.Capture, []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "cpu.pprof.gz"))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := profile.ReadShares(raw)
	if err != nil {
		t.Fatal(err)
	}
	meta, fresh := store.Put(raw, "cpu", int64(10*time.Second), sh)
	if !fresh {
		t.Fatal("fixture capture deduped unexpectedly")
	}
	return meta, raw
}

func TestProfilesEndpointsDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/profiles", "/v1/profiles/abc"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s without a store: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestProfilesListAndFetch(t *testing.T) {
	store := profile.NewStore(profile.StoreOptions{})
	meta, want := testCapture(t, store)
	_, ts := newTestServer(t, Config{Profiles: store})

	resp, err := http.Get(ts.URL + "/v1/profiles")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeJSON[ProfilesResponse](t, resp, http.StatusOK)
	if list.Total != 1 || len(list.Profiles) != 1 || list.Profiles[0].ID != meta.ID {
		t.Fatalf("list = %+v", list)
	}
	if list.Profiles[0].Shares == nil {
		t.Fatal("listing dropped the precomputed shares")
	}

	// The raw download is the stored capture, byte for byte.
	resp, err = http.Get(ts.URL + "/v1/profiles/" + meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("raw fetch: status %d err %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type = %q", ct)
	}
	if !bytes.HasPrefix(raw, []byte{0x1f, 0x8b}) {
		t.Fatal("raw capture lost its gzip framing")
	}
	if !bytes.Equal(raw, want) {
		t.Fatal("downloaded capture differs from the stored bytes")
	}
	if _, err := profile.ReadShares(raw); err != nil {
		t.Fatalf("downloaded capture unreadable: %v", err)
	}

	resp, err = http.Get(ts.URL + "/v1/profiles/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d", resp.StatusCode)
	}
}

// TestStartProfilerLifecycle covers the safesensed wiring: the
// background profiler starts when an interval is set, feeds the store,
// and exits through the shared WaitGroup on shutdown (run under -race
// via make race-hot).
func TestStartProfilerLifecycle(t *testing.T) {
	o := options{
		profileInterval: 40 * time.Millisecond,
		profileWindow:   20 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	store := startProfiler(ctx, o, logger, &wg)
	if store == nil {
		t.Fatal("startProfiler returned no store despite an interval")
	}
	deadline := 200
	for store.Len() == 0 && deadline > 0 {
		time.Sleep(10 * time.Millisecond)
		deadline--
	}
	if store.Len() == 0 {
		t.Fatal("no capture landed before the deadline")
	}
	cancel()
	wg.Wait() // must return promptly: the profiler goroutine terminates

	if s := startProfiler(context.Background(), options{}, logger, &wg); s != nil {
		t.Fatal("startProfiler built a store with profiling disabled")
	}
}
