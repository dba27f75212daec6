// Command safesim runs a single car-following scenario with a configurable
// attack and defense, printing the trajectory plots and the run summary.
//
// Usage:
//
//	safesim [-attack none|dos|delay] [-defended] [-steps N] [-seed S]
//	        [-offset M] [-onset K] [-leader const|phased]
//	        [-signal] [-extractor fft|music] [-csv FILE]
//	        [-events-out FILE] [-follow] [-timing] [-profile-dir DIR]
//	        [-forensic-dir DIR] [-replay HASH]
//
// -signal swaps the closed-form measurement model for the high-fidelity
// dechirped-sweep pipeline (synthesize the sweep, extract beat
// frequencies, invert to range/velocity); -extractor picks the beat
// extractor — the FFT periodogram (default) or the paper's root-MUSIC
// (music), which dominates the run's CPU and is the interesting subject
// for -profile-dir.
//
// -forensic-dir persists a forensic capture of the run (grid point,
// flight timeline, anomaly state dumps, phase timings) into the anomaly
// store at DIR and prints its content hash — the same store format
// safesensed serves at /v1/anomalies. -replay HASH re-runs a stored
// capture from its seed and diffs the fresh flight timeline against the
// stored one, exiting 1 on divergence; together they make any captured
// anomaly a portable, re-checkable artifact.
//
// -follow tails the flight recorder live: each event is printed to
// stderr as one JSON line the moment the simulator emits it (the same
// shape -events-out writes at end of run), so a long horizon can be
// watched as it unfolds and piped to jq without waiting for the
// summary.
//
// -profile-dir writes pprof profiles of the run for offline analysis
// (`go tool pprof DIR/cpu.pprof`): cpu.pprof covers the simulation
// itself, heap.pprof is an end-of-run allocation snapshot. Profiled runs
// carry pprof phase labels, so samples attribute to the pipeline phases
// (radar_synthesis, beat_extraction, cra_check, rls_estimation,
// vehicle_step): `go tool pprof -tags DIR/cpu.pprof` prints the phase
// split, and `-top -tagfocus phase=beat_extraction` the functions inside
// one phase. For the long-running service, fetch the same profiles over
// HTTP from the safesensed -pprof-addr mux instead: CPU via
// /debug/pprof/profile?seconds=N (the seconds query parameter bounds
// the sample window) and heap via /debug/pprof/heap?gc=1 (gc=1 runs a
// collection first so the snapshot shows live objects only).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"safesense/internal/campaign"
	"safesense/internal/obs/forensic"
	"safesense/internal/obs/profile"
	"safesense/internal/radar"
	"safesense/internal/sim"
	"safesense/internal/trace"
)

func main() {
	attackKind := flag.String("attack", "dos", "attack to mount: none, dos, delay")
	defended := flag.Bool("defended", true, "enable the CRA + RLS defense")
	steps := flag.Int("steps", 301, "simulation horizon in seconds")
	seed := flag.Int64("seed", 1, "random seed")
	offset := flag.Float64("offset", 6, "delay-injection distance offset in meters")
	onset := flag.Int("onset", 182, "attack onset step")
	leader := flag.String("leader", "const", "leader profile: const (Fig 2) or phased (Fig 3)")
	signal := flag.Bool("signal", false, "run the high-fidelity signal-level radar pipeline (dechirped sweep synthesis + beat extraction)")
	extractor := flag.String("extractor", "fft", "beat extractor for -signal mode: fft (periodogram) or music (root-MUSIC)")
	csvPath := flag.String("csv", "", "write the distance trace set as CSV to this file")
	eventsPath := flag.String("events-out", "", "write the flight-recorder event timeline as JSON Lines to this file (- for stdout)")
	follow := flag.Bool("follow", false, "stream flight-recorder events to stderr as JSON Lines while the run executes")
	width := flag.Int("width", 96, "plot width")
	height := flag.Int("height", 20, "plot height")
	timing := flag.Bool("timing", false, "print the per-phase timing breakdown next to the summary")
	profileDir := flag.String("profile-dir", "", "write cpu.pprof and heap.pprof for this run into DIR")
	forensicDir := flag.String("forensic-dir", "", "persist a forensic capture of the run into this anomaly store directory and print its hash")
	replayHash := flag.String("replay", "", "replay the capture with this hash from -forensic-dir and diff its flight timeline (exit 1 on divergence)")
	flag.Parse()

	if *replayHash != "" {
		if *forensicDir == "" {
			fmt.Fprintln(os.Stderr, "safesim: -replay requires -forensic-dir")
			os.Exit(2)
		}
		diverged, err := runReplay(*forensicDir, *replayHash)
		if err != nil {
			fmt.Fprintln(os.Stderr, "safesim:", err)
			os.Exit(1)
		}
		if diverged {
			os.Exit(1)
		}
		return
	}
	if err := validateFlags(*attackKind, *leader, *extractor, *steps, *onset, *offset, *width, *height); err != nil {
		fmt.Fprintln(os.Stderr, "safesim:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*attackKind, *leader, *extractor, *csvPath, *eventsPath, *profileDir, *forensicDir, *defended, *signal, *timing, *follow, *steps, *seed, *offset, *onset, *width, *height); err != nil {
		fmt.Fprintln(os.Stderr, "safesim:", err)
		os.Exit(1)
	}
}

// validateFlags rejects nonsensical flag combinations with a usage error
// before any simulation work starts.
func validateFlags(attackKind, leader, extractor string, steps, onset int, offset float64, width, height int) error {
	switch attackKind {
	case "none", "dos", "delay":
	default:
		return fmt.Errorf("unknown -attack %q (want none, dos, or delay)", attackKind)
	}
	switch leader {
	case "const", "phased":
	default:
		return fmt.Errorf("unknown -leader %q (want const or phased)", leader)
	}
	switch extractor {
	case "fft", "music":
	default:
		return fmt.Errorf("unknown -extractor %q (want fft or music)", extractor)
	}
	if steps < 1 {
		return fmt.Errorf("-steps must be >= 1, got %d", steps)
	}
	if onset < 0 {
		return fmt.Errorf("-onset must be >= 0, got %d", onset)
	}
	if attackKind != "none" && onset >= steps {
		return fmt.Errorf("-onset %d is beyond the -steps %d horizon", onset, steps)
	}
	if attackKind == "delay" && offset <= 0 {
		return fmt.Errorf("-offset must be positive for a delay attack, got %g", offset)
	}
	if width < 2 || height < 2 {
		return fmt.Errorf("-width and -height must be >= 2, got %dx%d", width, height)
	}
	return nil
}

func run(attackKind, leader, extractor, csvPath, eventsPath, profileDir, forensicDir string, defended, signal, timing, follow bool, steps int, seed int64, offset float64, onset, width, height int) error {
	// The scenario is built through a campaign.Point so a -forensic-dir
	// capture replays through the exact same construction path (the CLI
	// vocabulary for attacks and leaders matches the campaign's).
	point := campaign.Point{
		Attack:      attackKind,
		Leader:      leader,
		Onset:       onset,
		Steps:       steps,
		Seed:        seed,
		Defended:    defended,
		SignalLevel: signal,
	}
	if attackKind == "delay" {
		point.OffsetM = offset
	}
	s, err := point.Scenario()
	if err != nil {
		return err
	}
	if signal && extractor == "music" {
		// The extractor choice is a sim-level knob, not part of the
		// campaign grid vocabulary, so it rides outside the Point.
		s.Extractor = radar.MUSICExtractor{}
	}
	s.Name = fmt.Sprintf("safesim-%s-%s", attackKind, leader)

	stopProfiles, err := startProfiles(profileDir)
	if err != nil {
		return err
	}
	if profileDir != "" {
		// Label the run's goroutines so cpu.pprof samples attribute to
		// the pipeline phases.
		profile.Enable()
		defer profile.Disable()
	}
	ctx := context.Background()
	if follow {
		ctx = sim.WithFlightSink(ctx, newFollowSink(os.Stderr))
	}
	start := time.Now()
	res, err := sim.RunContext(ctx, s)
	wall := time.Since(start)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	if profileDir != "" {
		fmt.Printf("wrote %s and %s\n",
			filepath.Join(profileDir, "cpu.pprof"), filepath.Join(profileDir, "heap.pprof"))
	}
	opt := trace.PlotOptions{Width: width, Height: height}
	if err := res.Distance.RenderASCII(os.Stdout, opt); err != nil {
		return err
	}
	fmt.Println()
	if err := res.Speeds.RenderASCII(os.Stdout, opt); err != nil {
		return err
	}
	fmt.Println()
	printSummary(res)
	if timing {
		printTiming(os.Stdout, res.Phases, wall)
	}

	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.Distance.WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", csvPath)
	}
	if eventsPath != "" {
		if err := writeEvents(eventsPath, res); err != nil {
			return err
		}
	}
	if forensicDir != "" {
		if err := writeCapture(forensicDir, point, res); err != nil {
			return err
		}
	}
	return nil
}

// writeCapture persists a forensic capture of the finished run into the
// anomaly store at dir and prints its content hash. Runs without any
// recorded anomaly are tagged "manual" — the CLI user asked for the
// evidence, so the store keeps it (at the lowest eviction priority).
func writeCapture(dir string, p campaign.Point, res *sim.Result) error {
	store, err := forensic.Open(forensic.Options{Dir: dir})
	if err != nil {
		return err
	}
	defer store.Close()
	kinds := res.AnomalyKinds()
	if len(kinds) == 0 {
		kinds = []string{forensic.KindManual}
	}
	c, err := campaign.CaptureOf("safesim", "", campaign.Job{Point: p}, p.Label(), res, kinds)
	if err != nil {
		return err
	}
	hash, stored, err := store.Put(c)
	if err != nil {
		return err
	}
	if !stored {
		fmt.Printf("forensic capture %s (already stored)\n", hash)
		return nil
	}
	fmt.Printf("forensic capture %s (%s)\n", hash, strings.Join(kinds, ","))
	return nil
}

// runReplay re-runs a stored capture and diffs its flight timeline,
// reporting whether the run diverged: a capture from another numerics
// version that replays differently is stale, not diverged.
func runReplay(dir, hash string) (bool, error) {
	store, err := forensic.Open(forensic.Options{Dir: dir})
	if err != nil {
		return false, err
	}
	defer store.Close()
	c, ok := store.Get(hash)
	if !ok {
		return false, fmt.Errorf("no capture %q in %s", hash, dir)
	}
	rep, err := campaign.ReplayDiff(context.Background(), hash, c)
	if err != nil {
		return false, err
	}
	fmt.Printf("replay %s: %s (%s, seed=%d, numerics v%d)\n",
		hash, strings.ToUpper(rep.Result), c.Label, c.Seed, rep.Numerics)
	fmt.Printf("  stored events: %d, fresh events: %d, detected_at=%d, collision_at=%d\n",
		rep.StoredEvents, rep.FreshEvents, rep.DetectedAt, rep.CollisionAt)
	for _, d := range rep.Diffs {
		fmt.Printf("  diff @%d: stored=%s fresh=%s\n", d.Index, diffEvent(d.Stored), diffEvent(d.Fresh))
	}
	return rep.Result == forensic.ReplayDiverged, nil
}

// diffEvent renders one side of a timeline diff ("-" when that side has
// no event at the index).
func diffEvent(ev *sim.FlightEvent) string {
	if ev == nil {
		return "-"
	}
	return fmt.Sprintf("{k=%d %s %.6g %s}", ev.K, ev.Kind, ev.Value, ev.Detail)
}

// startProfiles begins a CPU profile in dir and returns a stop function
// that ends it and writes an end-of-run heap snapshot (after a forced
// collection, so the snapshot shows live objects only). With an empty
// dir both halves are no-ops.
func startProfiles(dir string) (func() error, error) {
	if dir == "" {
		return func() error { return nil }, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return err
		}
		heap, err := os.Create(filepath.Join(dir, "heap.pprof"))
		if err != nil {
			return err
		}
		defer heap.Close()
		runtime.GC()
		return pprof.WriteHeapProfile(heap)
	}, nil
}

// followSink is the -follow live tap: one JSON line per flight event,
// written the moment the simulator emits it. Same wire shape as
// -events-out, so downstream tooling (jq, the golden fixtures) works on
// either. Encoding errors (e.g. a closed pipe) drop the tail rather
// than aborting the simulation.
type followSink struct{ enc *json.Encoder }

func newFollowSink(w io.Writer) *followSink { return &followSink{enc: json.NewEncoder(w)} }

func (s *followSink) FlightEvent(ev sim.FlightEvent) { _ = s.enc.Encode(ev) }

// writeEvents exports the flight-recorder timeline as JSON Lines, one
// event per line (the same shape internal/sim pins in its golden file),
// followed by one line per anomaly dump. "-" streams to stdout.
func writeEvents(path string, res *sim.Result) error {
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	for _, ev := range res.Flight {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	for _, a := range res.Anomalies {
		if err := enc.Encode(a); err != nil {
			return err
		}
	}
	if path != "-" {
		fmt.Printf("wrote %s (%d events, %d anomaly dumps)\n", path, len(res.Flight), len(res.Anomalies))
	}
	return nil
}

func printSummary(res *sim.Result) {
	fmt.Printf("scenario: %s (attack=%s, defended=%v, seed=%d)\n",
		res.Scenario.Name, res.Scenario.Attack.Kind, res.Scenario.Defended, res.Scenario.Seed)
	if res.Scenario.Defended {
		fmt.Printf("detection: at k=%d; challenge confusion TP=%d TN=%d FP=%d FN=%d\n",
			res.DetectedAt, res.Accuracy.TruePositives, res.Accuracy.TrueNegatives,
			res.Accuracy.FalsePositives, res.Accuracy.FalseNegatives)
		fmt.Printf("recovery: %d estimated steps, dist RMSE %.2f m, vel RMSE %.3f m/s, RLS time %d ns\n",
			res.EstimateSteps, res.EstimateDistRMSE, res.EstimateVelRMSE, res.RLSTime.Nanoseconds())
	}
	fmt.Printf("safety: min gap %.2f m", res.MinGap)
	if res.CollisionAt >= 0 {
		fmt.Printf(" — COLLISION at k=%d", res.CollisionAt)
	}
	fmt.Printf("; final gap %.2f m, final follower speed %.2f m/s\n",
		res.FinalGap, res.FinalFollowerSpeed)
}

// printTiming renders the per-phase breakdown (-timing). Each line is
// the phase's cumulative wall time over the run, its share of the phase
// total, and how many times the run entered it. The other phase takes
// everything between the pipeline phases, so the total covers the run;
// the header reports what share of the wall clock measured around the
// run it accounts for.
func printTiming(w io.Writer, phases []sim.PhaseTiming, wall time.Duration) {
	total := sim.TotalSeconds(phases)
	accounted := 0.0
	if wall > 0 {
		accounted = 100 * total / wall.Seconds()
	}
	fmt.Fprintf(w, "timing: wall %.3f ms, phases %.3f ms, accounted for %.1f%% of wall\n",
		wall.Seconds()*1e3, total*1e3, accounted)
	for _, p := range phases {
		share := 0.0
		if total > 0 {
			share = 100 * p.Seconds / total
		}
		fmt.Fprintf(w, "  %-16s %10.3f ms  %5.1f%%  calls=%d\n",
			p.Phase, p.Seconds*1e3, share, p.Calls)
	}
}
