// Package lint is safesense's stdlib-only static-analysis framework:
// a tiny analyzer API (in the spirit of golang.org/x/tools/go/analysis,
// but built purely on go/parser, go/types, and go/importer so the repo
// keeps its no-external-dependency rule), a module-aware package
// loader, and the four domain analyzers that machine-check the
// invariants the paper reproduction depends on:
//
//   - determinism: the sim/estimator stack must be bit-for-bit
//     reproducible — no wall clocks, no global RNG, no map-iteration
//     ordered output in the scenario pipeline.
//   - floatcmp: numeric kernels compare floats through epsilon
//     helpers, never raw == / !=.
//   - hotpathalloc: functions annotated //safesense:hotpath stay free
//     of fmt calls, capturing closures, and interface boxing.
//   - metriclabels: metric families keep constant label keys and
//     bounded label-value cardinality.
//
// Diagnostics can be suppressed one line at a time with a trailing or
// preceding comment of the form
//
//	//safesense:allow <analyzer> <reason>
//
// The reason is mandatory by convention (reviewed, not enforced): an
// allow comment is a claim that a human has checked the exception.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"safesense/internal/lint/callgraph"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow comments.
	Name string
	// Doc is a one-line description of the invariant.
	Doc string
	// Paths restricts the analyzer to packages whose module-relative
	// import path equals, or is contained in, one of these prefixes
	// (e.g. "internal/dsp" also covers "internal/dsp/fft"). Empty
	// means every package.
	Paths []string
	// Run inspects one package and reports diagnostics via the pass.
	Run func(*Pass)
}

// AppliesTo reports whether the analyzer covers the package with the
// given module-relative path.
func (a *Analyzer) AppliesTo(relPath string) bool {
	if len(a.Paths) == 0 {
		return true
	}
	for _, p := range a.Paths {
		if relPath == p || strings.HasPrefix(relPath, p+"/") {
			return true
		}
	}
	return false
}

// Diagnostic is one finding: where, what, and how to fix it.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	// Hint tells the author the approved way to write the code.
	Hint string `json:"hint,omitempty"`
	// Chain, set by the transitive analyzers, is the call path from the
	// function owning the invariant to the violation, ending in the
	// violation itself (e.g. ["sim.Step", "dsp.window", "time.Now
	// wall-clock read"]). The same chain is rendered into Message with
	// " → " separators; the structured form is for machine consumers.
	Chain []string `json:"chain,omitempty"`
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
	if d.Hint != "" {
		s += " (hint: " + d.Hint + ")"
	}
	return s
}

// RenderChain joins chain elements with the arrow separator used in
// transitive diagnostics.
func RenderChain(chain []string) string { return strings.Join(chain, " → ") }

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's syntax trees (including in-package test
	// files when the loader was asked for them).
	Files []*ast.File
	// Pkg and Info are the go/types results for Files.
	Pkg  *types.Package
	Info *types.Info
	// RelPath is the unit's module-relative import path.
	RelPath string
	// Graph is the module-wide call graph, shared by every pass of one
	// run; its Cache lets analyzers memoize module-level facts once.
	Graph *callgraph.Graph

	diags   *[]Diagnostic
	allowed map[string]map[int]map[string]bool // file -> line -> analyzer set
}

// Reportf records a diagnostic at pos unless an allow comment covers
// the line.
func (p *Pass) Reportf(pos token.Pos, hint, format string, args ...any) {
	p.report(pos, hint, nil, format, args...)
}

// ReportChain records a transitive diagnostic at pos: the message is
// prefixed with the rendered call chain, and the structured chain rides
// the diagnostic's Chain field.
func (p *Pass) ReportChain(pos token.Pos, hint string, chain []string, format string, args ...any) {
	p.report(pos, hint, chain, "%s: %s", RenderChain(chain), fmt.Sprintf(format, args...))
}

func (p *Pass) report(pos token.Pos, hint string, chain []string, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allowedAt(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
		Hint:     hint,
		Chain:    chain,
	})
}

func (p *Pass) allowedAt(pos token.Position) bool {
	byLine := p.allowed[pos.Filename]
	if byLine == nil {
		return false
	}
	set := byLine[pos.Line]
	return set != nil && (set[p.Analyzer.Name] || set["all"])
}

// allowPrefix introduces a line-scoped suppression comment.
const allowPrefix = "//safesense:allow "

// buildAllowIndex scans every comment for allow directives. A
// directive covers its own source line and the line below it, so both
// trailing comments and own-line comments above the code work.
func buildAllowIndex(fset *token.FileSet, files []*ast.File) map[string]map[int]map[string]bool {
	idx := make(map[string]map[int]map[string]bool)
	add := func(file string, line int, name string) {
		byLine := idx[file]
		if byLine == nil {
			byLine = make(map[int]map[string]bool)
			idx[file] = byLine
		}
		set := byLine[line]
		if set == nil {
			set = make(map[string]bool)
			byLine[line] = set
		}
		set[name] = true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					continue
				}
				name, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
				if name == "" {
					continue
				}
				pos := fset.Position(c.Pos())
				add(pos.Filename, pos.Line, name)
				add(pos.Filename, pos.Line+1, name)
			}
		}
	}
	return idx
}

// FuncDocHas reports whether the function declaration's doc comment
// carries the given //safesense:<marker> directive line.
func FuncDocHas(fn *ast.FuncDecl, marker string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.TrimSpace(c.Text) == marker {
			return true
		}
	}
	return false
}

// GraphUnits converts loaded packages into call-graph units.
func GraphUnits(pkgs []*Package) []*callgraph.Unit {
	units := make([]*callgraph.Unit, len(pkgs))
	for i, p := range pkgs {
		units[i] = &callgraph.Unit{
			RelPath: p.RelPath,
			Files:   p.Files,
			Pkg:     p.Types,
			Info:    p.Info,
		}
	}
	return units
}

// RunAnalyzersGraph executes every applicable analyzer over the given
// (possibly pattern-filtered) packages, sharing one prebuilt call
// graph, and returns the findings sorted by position. When timings is
// non-nil, each analyzer's cumulative wall time is accumulated into it
// by name.
func RunAnalyzersGraph(pkgs []*Package, graph *callgraph.Graph, analyzers []*Analyzer, timings map[string]float64) []Diagnostic {
	if timings != nil {
		// Every analyzer appears in the breakdown, even when its scoped
		// paths matched nothing this run.
		for _, a := range analyzers {
			timings[a.Name] += 0
		}
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allowed := buildAllowIndex(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			if !a.AppliesTo(pkg.RelPath) {
				continue
			}
			start := wallClock()
			a.Run(&Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				RelPath:  pkg.RelPath,
				Graph:    graph,
				diags:    &diags,
				allowed:  allowed,
			})
			if timings != nil {
				timings[a.Name] += wallClock().Sub(start).Seconds()
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// All returns the seven safesense analyzers.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		FloatCmp,
		HotPathAlloc,
		MetricLabels,
		CtxFlow,
		GoroLeak,
		DeadCode,
	}
}
