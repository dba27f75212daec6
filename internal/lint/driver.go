package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"safesense/internal/lint/callgraph"
)

// wallClock is the driver's injected time source — the same seam idiom
// the determinism analyzer prescribes, so the lint tree passes its own
// analyzers when self-checked (`make lint-self`). Timing numbers are
// reporting metadata, never analysis input.
var wallClock = time.Now

// Timing is the driver's performance breakdown: where a lint run spent
// its time. All values are wall-clock seconds.
type Timing struct {
	// LoadSeconds covers parsing and type-checking the module — done
	// once, shared by every analyzer.
	LoadSeconds float64 `json:"load_seconds"`
	// GraphSeconds covers building the module-wide call graph — also
	// once per run, shared by the transitive analyzers.
	GraphSeconds float64 `json:"graph_seconds"`
	// Analyzers maps analyzer name to its cumulative run time across
	// all packages.
	Analyzers map[string]float64 `json:"analyzers"`
}

// WriteText renders the timing table, slowest analyzer first.
func (t *Timing) WriteText(w io.Writer) {
	fmt.Fprintf(w, "load:  %8.3fs (parse + type-check, once for all analyzers)\n", t.LoadSeconds)
	fmt.Fprintf(w, "graph: %8.3fs (module-wide call graph, once for all analyzers)\n", t.GraphSeconds)
	names := make([]string, 0, len(t.Analyzers))
	for name := range t.Analyzers {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		ti, tj := t.Analyzers[names[i]], t.Analyzers[names[j]]
		if ti > tj {
			return true
		}
		if tj > ti {
			return false
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		fmt.Fprintf(w, "%-14s %8.3fs\n", name+":", t.Analyzers[name])
	}
}

// Report is the driver's result: how much was analyzed and what was
// found. Its JSON form is the machine interface CI consumes
// (safesense-lint -json).
type Report struct {
	// Packages counts the analysis units that were analyzed (external
	// test packages count separately). The loader may have type-checked
	// more — the whole module is loaded once so the call graph spans
	// every package — but only pattern-matched units are reported on.
	Packages int `json:"packages"`
	// Diagnostics is sorted by file, line, column, analyzer. Empty
	// means the tree is clean (encoded as [] — never null — so
	// consumers can index unconditionally).
	Diagnostics []Diagnostic `json:"diagnostics"`
	// Timing breaks down where the run spent its time.
	Timing *Timing `json:"timing,omitempty"`
}

// Clean reports whether no analyzer found anything.
func (r *Report) Clean() bool { return len(r.Diagnostics) == 0 }

// Options tunes a lint run beyond the defaults.
type Options struct {
	// IncludeTests adds _test.go files (and external test packages) to
	// the analysis. Defaults to true in Run.
	IncludeTests bool
	// IgnorePaths disables every analyzer's Paths filter so all
	// analyzers run over all matched packages — the self-check mode
	// (`make lint-self` runs the full set over internal/lint itself).
	IgnorePaths bool
	// Timing populates Report.Timing.
	Timing bool
}

// RunOpts loads the module rooted at root and applies the analyzers to
// the packages matching the given patterns (none means the whole
// module). The entire module is parsed and type-checked exactly once —
// and the call graph built exactly once — regardless of how many
// analyzers run or how narrow the patterns are, because the transitive
// analyzers need whole-module visibility to follow calls out of the
// matched set. Load or type-check failures abort with an error — a tree
// that does not compile has no lint verdict.
func RunOpts(root string, patterns []string, analyzers []*Analyzer, opts Options) (*Report, error) {
	timing := &Timing{Analyzers: make(map[string]float64)}

	start := wallClock()
	loader, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	loader.IncludeTests = opts.IncludeTests
	all, err := loader.Packages()
	if err != nil {
		return nil, err
	}
	analyzed, err := filterPackages(all, patterns, loader.ModPath)
	if err != nil {
		return nil, err
	}
	timing.LoadSeconds = wallClock().Sub(start).Seconds()

	start = wallClock()
	graph := callgraph.Build(loader.Fset(), GraphUnits(all))
	timing.GraphSeconds = wallClock().Sub(start).Seconds()

	if opts.IgnorePaths {
		unscoped := make([]*Analyzer, len(analyzers))
		for i, a := range analyzers {
			na := *a
			na.Paths = nil
			unscoped[i] = &na
		}
		analyzers = unscoped
	}

	diags := RunAnalyzersGraph(analyzed, graph, analyzers, timing.Analyzers)
	if diags == nil {
		diags = []Diagnostic{}
	}
	report := &Report{Packages: len(analyzed), Diagnostics: diags}
	if opts.Timing {
		report.Timing = timing
	}
	return report, nil
}

// filterPackages selects the units matching the CLI patterns,
// preserving load order. Every pattern must match at least one unit.
func filterPackages(all []*Package, patterns []string, modPath string) ([]*Package, error) {
	if len(patterns) == 0 {
		return all, nil
	}
	matchedAny := make([]bool, len(patterns))
	var out []*Package
	for _, p := range all {
		matched := false
		for i, pat := range patterns {
			if matchPattern(pat, p.RelPath, modPath) {
				matchedAny[i] = true
				matched = true
			}
		}
		if matched {
			out = append(out, p)
		}
	}
	for i, pat := range patterns {
		if !matchedAny[i] {
			return nil, fmt.Errorf("lint: pattern %q matched no packages", pat)
		}
	}
	return out, nil
}

// WriteText renders diagnostics one per line in the conventional
// file:line:col form, with a trailing summary.
func (r *Report) WriteText(w io.Writer) {
	for _, d := range r.Diagnostics {
		fmt.Fprintln(w, d.String())
	}
	if len(r.Diagnostics) > 0 {
		fmt.Fprintf(w, "safesense-lint: %d diagnostic(s) in %d package(s)\n", len(r.Diagnostics), r.Packages)
	}
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
