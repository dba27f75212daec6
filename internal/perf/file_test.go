package perf

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestNextBenchPath(t *testing.T) {
	dir := t.TempDir()
	// Empty (and even missing) directories start at 1.
	p, err := NextBenchPath(dir)
	if err != nil || filepath.Base(p) != "BENCH_0001.json" {
		t.Errorf("empty dir: %q, %v", p, err)
	}
	p, err = NextBenchPath(filepath.Join(dir, "missing"))
	if err != nil || filepath.Base(p) != "BENCH_0001.json" {
		t.Errorf("missing dir: %q, %v", p, err)
	}

	for _, name := range []string{"BENCH_0001.json", "BENCH_0007.json", "BENCH_3.json", "notes.txt", "BENCH_x.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p, err = NextBenchPath(dir)
	if err != nil || filepath.Base(p) != "BENCH_0008.json" {
		t.Errorf("populated dir: %q, %v", p, err)
	}
}

func TestRunFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	run := mkRun("deadbeef", map[string][]float64{
		"kernel_fft": {100, 101, 99, 100},
	})
	run.Scenarios[0].Extra = map[string][]float64{
		ExtraHeapBytes: {1024, 1024, 1024, 1024},
	}
	path := filepath.Join(dir, "nested", "BENCH_0001.json")
	if err := WriteRunFile(path, run); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRunFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.VCSRevision != "deadbeef" || len(got.Scenarios) != 1 {
		t.Errorf("round trip lost data: %+v", got)
	}
	s := got.Scenarios[0]
	if s.Name != "kernel_fft" || len(s.NsPerOp) != 4 || s.Extra[ExtraHeapBytes][0] != 1024 {
		t.Errorf("scenario round trip: %+v", s)
	}
	// Pretty-printed with trailing newline, for reviewable diffs.
	raw, _ := os.ReadFile(path)
	if !strings.HasSuffix(string(raw), "\n") || !strings.Contains(string(raw), "  \"schema_version\"") {
		t.Error("file is not pretty-printed with trailing newline")
	}
}

// TestReadCheckedInRunFiles: every committed trajectory document and
// the baseline still load. BENCH_0004 and BENCH_0005 embed per-scenario
// "profile" digests from a schema field since removed; decoding must
// keep skipping them.
func TestReadCheckedInRunFiles(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "perf", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	paths = append(paths, filepath.Join("..", "..", "perf", "baseline.json"))
	legacy := 0
	for _, path := range paths {
		run, err := ReadRunFile(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if len(run.Scenarios) == 0 {
			t.Errorf("%s: no scenarios", path)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(raw), `"profile": {`) {
			legacy++
		}
	}
	if len(paths) < 12 || legacy < 2 {
		t.Fatalf("read %d documents, %d with legacy profile digests; want the 11 BENCH files plus the baseline, 2 legacy", len(paths), legacy)
	}
}

func TestReadRunFileRejects(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadRunFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{not json"), 0o644)
	if _, err := ReadRunFile(bad); err == nil {
		t.Error("malformed JSON accepted")
	}
	future := mkRun("x", nil)
	future.SchemaVersion = SchemaVersion + 1
	fp := filepath.Join(dir, "future.json")
	if err := WriteRunFile(fp, future); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRunFile(fp); err == nil || !strings.Contains(err.Error(), "schema_version") {
		t.Errorf("future schema accepted: %v", err)
	}
}

func TestParseWaivers(t *testing.T) {
	input := `# perf waivers — one directive per line
safesense:perf-waiver kernel_fft known 20% slowdown from bounds checks, tracked

safesense:perf-waiver campaign_w4 shared CI box starves workers
`
	waivers, err := ParseWaivers(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(waivers) != 2 {
		t.Fatalf("waivers = %v", waivers)
	}
	if waivers["kernel_fft"] != "known 20% slowdown from bounds checks, tracked" {
		t.Errorf("reason = %q", waivers["kernel_fft"])
	}

	for _, bad := range []string{
		"kernel_fft no directive prefix",
		"safesense:perf-waiver only_scenario_no_reason",
		"safesense:perf-waiver",
	} {
		if _, err := ParseWaivers(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted malformed line %q", bad)
		}
	}
}

func TestReadWaiversFile(t *testing.T) {
	dir := t.TempDir()
	// Missing file: strict empty set, not an error.
	w, err := ReadWaiversFile(filepath.Join(dir, "absent.txt"))
	if err != nil || len(w) != 0 {
		t.Errorf("missing waivers file: %v, %v", w, err)
	}
	path := filepath.Join(dir, "waivers.txt")
	os.WriteFile(path, []byte("safesense:perf-waiver s reason here\n"), 0o644)
	w, err = ReadWaiversFile(path)
	if err != nil || w["s"] != "reason here" {
		t.Errorf("waivers = %v, %v", w, err)
	}
}

func TestShortRev(t *testing.T) {
	if got := shortRev("0123456789abcdef0123"); got != "0123456789ab" {
		t.Errorf("shortRev = %q", got)
	}
	if got := shortRev("0123456789abcdef0123-dirty"); got != "0123456789ab-dirty" {
		t.Errorf("shortRev dirty = %q", got)
	}
	if got := shortRev("abc"); got != "abc" {
		t.Errorf("shortRev short = %q", got)
	}
}
