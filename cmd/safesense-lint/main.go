// Command safesense-lint runs the repo's domain analyzers — the
// machine-checked invariants behind the paper reproduction:
//
//	determinism   no wall clocks / global RNG / map-ordered output in
//	              the scenario pipeline, directly or through any chain
//	              of calls into helper packages
//	floatcmp      no raw == / != on floats in the numeric kernels
//	hotpathalloc  no fmt, capturing closures, or interface boxing in
//	              //safesense:hotpath functions or anything they
//	              statically reach
//	metriclabels  constant label keys, bounded label values at
//	              internal/obs call sites
//	ctxflow       context-carrying functions thread their ctx down —
//	              no fresh context.Background()/TODO() roots
//	goroleak      every goroutine in the long-lived layers has a
//	              provable termination path
//	deadcode      every function is reachable from a main/init, a var
//	              initializer, the root package's API, or another
//	              package's test
//
// It is built purely on go/parser + go/types + go/importer, so it
// needs nothing outside the standard library. The module is parsed,
// type-checked, and call-graphed exactly once per run, shared by all
// analyzers. CI and humans share one entry point:
//
//	safesense-lint ./...                    # whole module, human output
//	safesense-lint -json internal/sim/...   # one subtree, machine output
//	safesense-lint -tests=false ./...       # skip _test.go files
//	safesense-lint -timing ./...            # per-analyzer wall time
//	safesense-lint -ignore-paths internal/lint/...  # self-check: all analyzers, path scoping off
//
// Exit status: 0 clean, 1 diagnostics found, 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"os"

	"safesense/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("safesense-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	tests := fs.Bool("tests", true, "analyze _test.go files too")
	root := fs.String("root", ".", "module root (directory containing go.mod)")
	timing := fs.Bool("timing", false, "report package-load, graph-build, and per-analyzer wall time")
	ignorePaths := fs.Bool("ignore-paths", false, "disable analyzer path scoping (self-check mode: every analyzer runs on every matched package)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: safesense-lint [-json] [-tests=false] [-timing] [-ignore-paths] [-root dir] [packages...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	report, err := lint.RunOpts(*root, fs.Args(), lint.All(), lint.Options{
		IncludeTests: *tests,
		IgnorePaths:  *ignorePaths,
		Timing:       *timing,
	})
	if err != nil {
		fmt.Fprintln(stderr, "safesense-lint:", err)
		return 2
	}
	if *jsonOut {
		if err := report.WriteJSON(stdout); err != nil {
			fmt.Fprintln(stderr, "safesense-lint:", err)
			return 2
		}
	} else {
		report.WriteText(stdout)
		if report.Timing != nil {
			report.Timing.WriteText(stdout)
		}
	}
	if !report.Clean() {
		return 1
	}
	return 0
}
