package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"safesense/internal/sim"
)

func TestValidateFlags(t *testing.T) {
	ok := func(attack, leader string, steps, onset int, offset float64) {
		t.Helper()
		if err := validateFlags(attack, leader, "fft", steps, onset, offset, 96, 20); err != nil {
			t.Errorf("validateFlags(%s, %s, %d, %d, %g) = %v, want nil",
				attack, leader, steps, onset, offset, err)
		}
	}
	bad := func(name, attack, leader string, steps, onset int, offset float64) {
		t.Helper()
		if err := validateFlags(attack, leader, "fft", steps, onset, offset, 96, 20); err == nil {
			t.Errorf("%s: want usage error", name)
		}
	}

	ok("dos", "const", 301, 182, 6)
	ok("delay", "phased", 301, 180, 6)
	ok("none", "const", 10, 0, 6)

	bad("unknown attack", "emp", "const", 301, 182, 6)
	bad("unknown leader", "dos", "teleport", 301, 182, 6)
	bad("zero steps", "dos", "const", 0, 0, 6)
	bad("negative steps", "dos", "const", -5, 0, 6)
	bad("negative onset", "dos", "const", 301, -1, 6)
	bad("onset beyond horizon", "dos", "const", 100, 100, 6)
	bad("non-positive delay offset", "delay", "const", 301, 180, 0)

	if err := validateFlags("dos", "const", "music", 301, 182, 6, 96, 20); err != nil {
		t.Errorf("music extractor rejected: %v", err)
	}
	if err := validateFlags("dos", "const", "welch", 301, 182, 6, 96, 20); err == nil {
		t.Error("unknown extractor should be rejected")
	}
	if err := validateFlags("dos", "const", "fft", 301, 182, 6, 1, 20); err == nil {
		t.Error("tiny plot should be rejected")
	}
}

func TestPrintTiming(t *testing.T) {
	res, err := sim.Run(sim.Fig2aDoS())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	printTiming(&sb, res.Phases, 5*time.Millisecond)
	out := sb.String()
	if !strings.HasPrefix(out, "timing: wall 5.000 ms") {
		t.Errorf("timing header missing:\n%s", out)
	}
	if !strings.Contains(out, "% of wall") {
		t.Errorf("timing header missing the accounted share:\n%s", out)
	}
	for _, phase := range sim.PhaseNames() {
		if !strings.Contains(out, phase) {
			t.Errorf("timing output missing phase %q:\n%s", phase, out)
		}
	}
	if !strings.Contains(out, "calls=301") {
		t.Errorf("timing output missing per-step call counts:\n%s", out)
	}
}

// TestProfileDirWritesProfiles: -profile-dir brackets the run with a CPU
// profile and ends it with a heap snapshot; both files must exist and be
// non-empty so `go tool pprof` has something to open.
func TestProfileDirWritesProfiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "profiles")
	stop, err := startProfiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(sim.Fig2aDoS()); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cpu.pprof", "heap.pprof"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s not written: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}

// TestStartProfilesDisabled: the empty-dir path is a pair of no-ops.
func TestStartProfilesDisabled(t *testing.T) {
	stop, err := startProfiles("")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestFollowSinkStreamsJSONL: -follow's live tap must emit exactly the
// events the run buffers into Result.Flight, one JSON line each, in
// emission order.
func TestFollowSinkStreamsJSONL(t *testing.T) {
	var sb strings.Builder
	sink := newFollowSink(&sb)
	res, err := sim.RunContext(sim.WithFlightSink(context.Background(), sink), sim.Fig2bDelay())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != len(res.Flight) {
		t.Fatalf("follow tap wrote %d lines, run recorded %d events", len(lines), len(res.Flight))
	}
	for i, line := range lines {
		var ev sim.FlightEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i+1, err)
		}
		if ev != res.Flight[i] {
			t.Fatalf("line %d = %+v, want %+v", i+1, ev, res.Flight[i])
		}
	}
}

// TestWriteEventsJSONL: -events-out produces one parseable JSON object
// per line carrying the spoofing run's detection/recovery timeline.
func TestWriteEventsJSONL(t *testing.T) {
	res, err := sim.Run(sim.Fig2bDelay())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "events.jsonl")
	if err := writeEvents(path, res); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	kinds := map[string]bool{}
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines++
		var ev sim.FlightEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", lines, err)
		}
		kinds[ev.Kind] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != len(res.Flight)+len(res.Anomalies) {
		t.Errorf("wrote %d lines, want %d events + %d dumps", lines, len(res.Flight), len(res.Anomalies))
	}
	for _, kind := range []string{sim.EventChallenge, sim.EventCRAFlagged, sim.EventRLSTakeover, sim.EventRLSRelease} {
		if !kinds[kind] {
			t.Errorf("export missing %q events", kind)
		}
	}
}
