package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"safesense/internal/lint/callgraph"
)

// Determinism enforces the reproduction's core contract: for a given
// scenario seed, the sim/estimator stack is bit-for-bit deterministic.
// The paper's headline results (zero CRA false positives/negatives,
// RLS takeover exactly at the attack step) are only checkable because
// reruns are exact, so inside the scenario pipeline:
//
//   - no wall-clock reads (time.Now / time.Since): clocks must be
//     injected through a package-level seam (`var clock = time.Now`),
//     which is the one place a time.Now *reference* is permitted;
//   - no global math/rand state (rand.Float64, rand.Intn, ...): all
//     randomness flows from the scenario seed through constructed
//     generators (rand.New, noise.NewSource);
//   - no output built by ranging over a map: map iteration order is
//     deliberately randomized by the runtime, so a loop that appends
//     to a slice, prints, or writes while ranging a map produces a
//     different artifact every run unless the keys are sorted first.
//
// The check is transitive: beyond the direct (intraprocedural) scan of
// every in-scope package, each in-scope function walks the module-wide
// call graph and is flagged when it can reach a violation buried in a
// helper package outside the scoped paths — a time.Now() two calls deep
// in internal/dsp breaks sim determinism exactly as much as one written
// inline. Transitive diagnostics carry the full call chain
// (sim.Step → dsp.window → time.Now wall-clock read) and anchor at the
// in-scope call site, where a line-scoped //safesense:allow can
// suppress them. Propagation stops at other in-scope functions (they
// file their own reports) and cannot cross calls through
// function-typed variables — which is precisely why the injected-seam
// idiom (`var clock = time.Now`) is invisible to it by design.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall clocks, global RNG, and map-ordered output (directly or transitively) in the deterministic pipeline",
	Paths: []string{
		"internal/sim",
		"internal/estimate",
		"internal/cra",
		"internal/radar",
		"internal/campaign",
		"internal/report",
		// The distributed coordinator/worker layer must stay replayable
		// too: lease ordering and checkpoint replay may consult the
		// clock only through the injected seam, and status payloads must
		// not leak map iteration order.
		"internal/dist",
		// The stream hub sits on the sim hot path (flight-recorder sink,
		// campaign callbacks): it must never consult a wall clock or
		// iterate maps into the wire — event order is the publish order.
		"internal/obs/stream",
		// The content-addressed store under the forensic and profile
		// stores: eviction order must be reproducible across nodes and
		// restarts, so recency is a logical sequence counter (never wall
		// time) and listings sort before they serialize.
		"internal/obs/castore",
		// Forensic dedup hashes must be reproducible across nodes and
		// restarts.
		"internal/obs/forensic",
		// The pprof decoder must be a pure function of its input bytes
		// (summaries are diffed across hosts and the golden-fixture test
		// byte-compares output); wall time enters the profile store only
		// through the injected clock seam on the capture stamp.
		"internal/obs/profile",
	},
	Run: runDeterminism,
}

// globalRandFuncs are the math/rand (and rand/v2) package-level
// functions backed by shared global state. Constructors (New,
// NewSource, NewPCG, NewChaCha8, NewZipf) are the approved seeded
// idiom and stay legal.
var globalRandFuncs = map[string]bool{
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Int": true, "Int31": true, "Int31n": true, "Int32": true, "Int32N": true,
	"Int63": true, "Int63n": true, "Int64": true, "Int64N": true,
	"IntN": true, "Intn": true, "N": true,
	"Uint": true, "Uint32": true, "Uint32N": true, "Uint64": true, "Uint64N": true, "UintN": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

func runDeterminism(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					deterministicWalk(p, d.Body)
				}
			case *ast.GenDecl:
				// Package-level var initializers are the injected-clock
				// seam: `var clock = time.Now` is allowed. Calling the
				// clock at package init time is still flagged, so only
				// call expressions are inspected here.
				ast.Inspect(d, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
							reportNondeterministic(p, sel)
						}
					}
					return true
				})
			}
		}
	}
	runDeterminismTransitive(p)
}

// runDeterminismTransitive walks the call graph from every function
// declared in this in-scope unit and reports reachable violations in
// out-of-scope module packages, with the full call chain.
func runDeterminismTransitive(p *Pass) {
	facts := determinismFacts(p.Graph)
	inScope := func(rel string) bool { return p.Analyzer.AppliesTo(rel) }
	for _, root := range unitNodes(p) {
		tree := p.Graph.ReachFrom(root, func(n *callgraph.Node) bool {
			// Expand only through out-of-scope nodes: an in-scope
			// function on the path files its own report.
			return !inScope(n.RelPath)
		})
		for _, hit := range sortedReached(tree) {
			if inScope(hit.RelPath) {
				continue // directly checked where it is declared
			}
			fs := facts[hit]
			if len(fs) == 0 {
				continue
			}
			chain := callgraph.ChainTo(tree, hit)
			if chain == nil {
				continue
			}
			display := chainDisplay(root, chain)
			display = append(display, fs[0].desc)
			extra := ""
			if len(fs) > 1 {
				extra = " (and more in the same function)"
			}
			p.ReportChain(chain[0].Pos, fs[0].hint, display,
				"transitively %s%s", fs[0].what, extra)
		}
	}
}

// detFact is one direct violation found in a function body, as seen by
// the transitive pass.
type detFact struct {
	pos  token.Pos
	desc string // chain-tail form, e.g. "time.Now wall-clock read"
	what string // sentence form, e.g. "reads the wall clock (time.Now)"
	hint string
}

// determinismFacts scans every node's own body once per graph and
// memoizes the direct violations, keyed by node.
func determinismFacts(g *callgraph.Graph) map[*callgraph.Node][]detFact {
	const key = "determinism.facts"
	if cached, ok := g.Cache[key]; ok {
		return cached.(map[*callgraph.Node][]detFact)
	}
	facts := make(map[*callgraph.Node][]detFact)
	for _, n := range g.SortedNodes() {
		info := n.Unit.Info
		var fs []detFact
		n.InspectOwn(func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.SelectorExpr:
				if f, ok := nondeterministicUse(info, x); ok {
					fs = append(fs, f)
				}
			case *ast.RangeStmt:
				if body := n.Body(); body != nil {
					if _, ok := mapRangeSink(info, body, x); ok {
						fs = append(fs, detFact{
							pos:  x.Pos(),
							desc: "map-ordered output",
							what: "emits map-iteration-ordered output",
							hint: "collect the keys, sort them, and iterate the sorted slice",
						})
					}
				}
			}
			return true
		})
		sort.Slice(fs, func(i, j int) bool { return fs[i].pos < fs[j].pos })
		if len(fs) > 0 {
			facts[n] = fs
		}
	}
	g.Cache[key] = facts
	return facts
}

// nondeterministicUse resolves a selector and classifies it as a
// forbidden clock or global-RNG use.
func nondeterministicUse(info *types.Info, sel *ast.SelectorExpr) (detFact, bool) {
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return detFact{}, false
	}
	switch obj.Pkg().Path() {
	case "time":
		if obj.Name() == "Now" || obj.Name() == "Since" || obj.Name() == "Until" {
			return detFact{
				pos:  sel.Pos(),
				desc: "time." + obj.Name() + " wall-clock read",
				what: "reads the wall clock (time." + obj.Name() + ")",
				hint: "inject the clock through a package-level `var clock = time.Now` seam and stub it in tests",
			}, true
		}
	case "math/rand", "math/rand/v2":
		// Only package-level functions touch the shared global state;
		// methods on a constructed *rand.Rand are the approved idiom.
		fn, isFunc := obj.(*types.Func)
		if isFunc && fn.Type().(*types.Signature).Recv() == nil && globalRandFuncs[obj.Name()] {
			return detFact{
				pos:  sel.Pos(),
				desc: "global rand." + obj.Name(),
				what: "draws from the global RNG (rand." + obj.Name() + ")",
				hint: "derive randomness from the scenario seed (noise.NewSource / rand.New(rand.NewSource(seed)))",
			}, true
		}
	}
	return detFact{}, false
}

// unitNodes returns the graph nodes (declarations and literals)
// declared in this pass's unit, in deterministic ID order.
func unitNodes(p *Pass) []*callgraph.Node {
	var out []*callgraph.Node
	for _, n := range p.Graph.SortedNodes() {
		if n.Unit != nil && n.Unit.Pkg == p.Pkg {
			out = append(out, n)
		}
	}
	return out
}

// sortedReached returns the BFS tree's reached nodes in deterministic
// ID order (the tree is a map).
func sortedReached(tree map[*callgraph.Node]*callgraph.Edge) []*callgraph.Node {
	out := make([]*callgraph.Node, 0, len(tree))
	for n := range tree {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// chainDisplay renders the node sequence of an edge chain, starting at
// the root.
func chainDisplay(root *callgraph.Node, chain []*callgraph.Edge) []string {
	out := make([]string, 0, len(chain)+2)
	out = append(out, root.Display)
	for _, e := range chain {
		out = append(out, e.Callee.Display)
	}
	return out
}

// reportNondeterministic resolves a selector and reports it when it
// names a forbidden clock or global-RNG function.
func reportNondeterministic(p *Pass, sel *ast.SelectorExpr) {
	f, ok := nondeterministicUse(p.Info, sel)
	if !ok {
		return
	}
	p.Reportf(sel.Pos(), f.hint, "%s breaks run reproducibility", f.desc)
}

// deterministicWalk flags clock and global-RNG uses (references and
// calls) plus map-ordered output inside a function body.
func deterministicWalk(p *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			reportNondeterministic(p, n)
		case *ast.RangeStmt:
			checkMapRangeOutput(p, body, n)
		}
		return true
	})
}

// checkMapRangeOutput flags `for k := range m` over a map when the
// loop body feeds an order-sensitive sink (slice append, fmt output,
// Write* methods, channel send) — unless every appended slice is
// passed to a sort call elsewhere in the enclosing function (the
// collect-then-sort idiom).
func checkMapRangeOutput(p *Pass, enclosing *ast.BlockStmt, rng *ast.RangeStmt) {
	msg, ok := mapRangeSink(p.Info, enclosing, rng)
	if !ok {
		return
	}
	hint := "collect the keys, sort them, and iterate the sorted slice"
	if strings.HasPrefix(msg, "map iteration order feeds slice") {
		hint = "sort the slice after the loop (sort.Slice / slices.Sort / sort.Ints), or iterate sorted keys"
	}
	p.Reportf(rng.Pos(), hint, "%s", msg)
}

// mapRangeSink classifies a range statement as map-ordered output. The
// returned message is the human form; ok is false when the range is not
// over a map or feeds no order-sensitive sink.
func mapRangeSink(info *types.Info, enclosing *ast.BlockStmt, rng *ast.RangeStmt) (string, bool) {
	tv, ok := info.Types[rng.X]
	if !ok {
		return "", false
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return "", false
	}
	var sinkKind string
	appended := make(map[types.Object]bool)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sinkKind != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "append" && info.Uses[fun] != nil && info.Uses[fun].Parent() == types.Universe {
					if target := appendTarget(info, n); target != nil {
						appended[target] = true
					} else {
						sinkKind = "a slice append"
					}
				}
			case *ast.SelectorExpr:
				if obj := info.Uses[fun.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
					sinkKind = "fmt output"
				} else if name := fun.Sel.Name; name == "Write" || name == "WriteString" || name == "WriteByte" || name == "WriteRune" {
					sinkKind = "writer output"
				}
			}
		case *ast.SendStmt:
			sinkKind = "a channel send"
		}
		return sinkKind == ""
	})
	if sinkKind != "" {
		return "map iteration order reaches " + sinkKind + "; output will differ between identical runs", true
	}
	for _, obj := range sortedObjects(appended) {
		if !sortedInBlock(info, enclosing, obj) {
			return "map iteration order feeds slice \"" + obj.Name() + "\" without a subsequent sort", true
		}
	}
	return "", false
}

// sortedObjects orders a set of objects by position so diagnostics are
// deterministic.
func sortedObjects(set map[types.Object]bool) []types.Object {
	out := make([]types.Object, 0, len(set))
	for obj := range set {
		out = append(out, obj)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// appendTarget resolves append(x, ...)'s slice variable, nil when the
// first argument is not a plain identifier.
func appendTarget(info *types.Info, call *ast.CallExpr) types.Object {
	if len(call.Args) == 0 {
		return nil
	}
	if id, ok := call.Args[0].(*ast.Ident); ok {
		return info.Uses[id]
	}
	return nil
}

// sortedInBlock reports whether obj is passed to a sort.* / slices.*
// call anywhere in the function body (no flow analysis; accepting a
// sort before the loop is a deliberate simplification).
func sortedInBlock(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		callee := info.Uses[sel.Sel]
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		if pkg := callee.Pkg().Path(); pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && info.Uses[id] == obj {
				found = true
			}
		}
		return !found
	})
	return found
}
