// Command safesense-perf is the performance-observability harness: it
// measures the registered scenario suite (internal/perf/suite) into
// schema-versioned BENCH_<n>.json documents, compares two captures with
// a Mann-Whitney significance test, and gates CI against the committed
// baseline.
//
// Usage:
//
//	safesense-perf run [-dir perf] [-out FILE] [-scenarios REGEX]
//	                   [-reps N] [-warmup N] [-min-rep-ms N] [-list]
//	safesense-perf compare [-alpha A] [-json] [-quiet] OLD.json NEW.json
//	safesense-perf check [-baseline perf/baseline.json] [-new FILE]
//	                     [-threshold PCT] [-alpha A]
//	                     [-waivers perf/waivers.txt] [-json]
//	                     [-scenarios REGEX] [-reps N] [-min-rep-ms N]
//
// `check` exits nonzero when any unwaived scenario regressed
// significantly beyond the threshold; a scenario can be exempted with a
// `safesense:perf-waiver <scenario> <reason>` line in the waivers file.
// To see which functions moved between two raw pprof captures (safesim
// -profile-dir output or /v1/profiles downloads), use
// `go tool pprof -top -diff_base OLD.pprof NEW.pprof`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"safesense/internal/perf"
	"safesense/internal/perf/suite"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: safesense-perf <run|compare|check> [flags]")
	fmt.Fprintln(w, "  run      measure the scenario suite into a BENCH_<n>.json document")
	fmt.Fprintln(w, "  compare  diff two BENCH documents (Mann-Whitney significance)")
	fmt.Fprintln(w, "  check    gate a fresh (or given) capture against a baseline")
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "run":
		err = cmdRun(args[1:], stdout)
	case "compare":
		err = cmdCompare(args[1:], stdout)
	case "check":
		var failed bool
		failed, err = cmdCheck(args[1:], stdout)
		if err == nil && failed {
			return 1
		}
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "safesense-perf: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "safesense-perf:", err)
		if _, bad := err.(*flagError); bad {
			return 2
		}
		return 1
	}
	return 0
}

// flagError marks argument mistakes (exit 2) as opposed to measurement
// or I/O failures (exit 1).
type flagError struct{ msg string }

func (e *flagError) Error() string { return e.msg }

// runnerFlags are the measurement knobs shared by `run` and `check`.
type runnerFlags struct {
	scenarios *string
	reps      *int
	warmup    *int
	minRepMS  *int
}

func addRunnerFlags(fs *flag.FlagSet) runnerFlags {
	return runnerFlags{
		scenarios: fs.String("scenarios", "", "regexp of scenario names to measure (default all)"),
		reps:      fs.Int("reps", 0, "measured repetitions per scenario (default 10)"),
		warmup:    fs.Int("warmup", 0, "warmup repetitions per scenario (default 1, -1 disables)"),
		minRepMS:  fs.Int("min-rep-ms", 0, "per-repetition time floor in milliseconds (default 20)"),
	}
}

// capture measures the selected scenarios with a progress line per
// scenario.
func capture(rf runnerFlags, progress io.Writer) (*perf.Run, error) {
	scenarios, err := suite.Default().Match(*rf.scenarios)
	if err != nil {
		return nil, err
	}
	if len(scenarios) == 0 {
		return nil, &flagError{fmt.Sprintf("no scenario matches %q", *rf.scenarios)}
	}
	r := perf.NewRunner(perf.RunnerConfig{
		Reps:         *rf.reps,
		Warmup:       *rf.warmup,
		MinRepMillis: *rf.minRepMS,
	})
	r.OnScenario = func(name string) { fmt.Fprintf(progress, "measuring %s...\n", name) }
	return r.RunSuite(scenarios)
}

func cmdRun(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	dir := fs.String("dir", "perf", "directory receiving the next BENCH_<n>.json")
	out := fs.String("out", "", "exact output path (overrides -dir numbering)")
	list := fs.Bool("list", false, "list registered scenarios and exit")
	rf := addRunnerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return &flagError{err.Error()}
	}
	if *list {
		for _, s := range suite.Default().Scenarios() {
			fmt.Fprintf(stdout, "%-28s %-10s ops=%-4d %s\n", s.Name, s.Group, s.Ops, s.Doc)
		}
		return nil
	}
	run, err := capture(rf, stdout)
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		if path, err = perf.NextBenchPath(*dir); err != nil {
			return err
		}
	}
	if err := perf.WriteRunFile(path, run); err != nil {
		return err
	}
	perf.FormatRun(stdout, run)
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}

func cmdCompare(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	alpha := fs.Float64("alpha", perf.DefaultAlpha, "significance level")
	asJSON := fs.Bool("json", false, "emit the full report as JSON")
	quiet := fs.Bool("quiet", false, "hide insignificant sub-1% deltas")
	if err := fs.Parse(args); err != nil {
		return &flagError{err.Error()}
	}
	if fs.NArg() != 2 {
		return &flagError{"compare wants exactly two BENCH files: OLD.json NEW.json"}
	}
	oldRun, err := perf.ReadRunFile(fs.Arg(0))
	if err != nil {
		return err
	}
	newRun, err := perf.ReadRunFile(fs.Arg(1))
	if err != nil {
		return err
	}
	rep := perf.Compare(oldRun, newRun, *alpha)
	if *asJSON {
		return writeJSON(stdout, rep)
	}
	perf.FormatReport(stdout, rep, *quiet)
	return nil
}

func cmdCheck(args []string, stdout io.Writer) (failed bool, err error) {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	baseline := fs.String("baseline", "perf/baseline.json", "committed baseline BENCH document")
	newPath := fs.String("new", "", "pre-captured BENCH document to gate (default: measure now)")
	threshold := fs.Float64("threshold", perf.DefaultThresholdPct, "median worsening (percent) that fails the gate")
	alpha := fs.Float64("alpha", perf.DefaultAlpha, "significance level")
	waiversPath := fs.String("waivers", "perf/waivers.txt", "waiver file (safesense:perf-waiver lines)")
	asJSON := fs.Bool("json", false, "emit the gate verdict as JSON")
	saveTo := fs.String("save", "", "also write the fresh capture to this BENCH path")
	rf := addRunnerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return false, &flagError{err.Error()}
	}
	base, err := perf.ReadRunFile(*baseline)
	if err != nil {
		return false, fmt.Errorf("loading baseline: %w", err)
	}
	var fresh *perf.Run
	if *newPath != "" {
		if fresh, err = perf.ReadRunFile(*newPath); err != nil {
			return false, err
		}
	} else {
		if fresh, err = capture(rf, stdout); err != nil {
			return false, err
		}
		if *saveTo != "" {
			if err := perf.WriteRunFile(*saveTo, fresh); err != nil {
				return false, err
			}
			fmt.Fprintf(stdout, "wrote %s\n", *saveTo)
		}
	}
	waivers, err := perf.ReadWaiversFile(*waiversPath)
	if err != nil {
		return false, err
	}
	rep := perf.Compare(base, fresh, *alpha)
	regs, failed := rep.Gate(perf.GateOptions{
		ThresholdPct: *threshold,
		Waivers:      waivers,
	})
	if *asJSON {
		return failed, writeJSON(stdout, perf.CheckResult{
			Failed:       failed,
			ThresholdPct: *threshold,
			Alpha:        rep.Alpha,
			Regressions:  regs,
		})
	}
	perf.FormatReport(stdout, rep, true)
	perf.FormatRegressions(stdout, regs, *threshold, rep.Alpha, failed)
	return failed, nil
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
