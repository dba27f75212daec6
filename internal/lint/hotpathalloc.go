package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"safesense/internal/lint/callgraph"
)

// HotPathAlloc guards the functions the whole performance story rests
// on: the ~15 ns lock-free metrics path in internal/obs and the
// per-step flight recorder in internal/sim. A function whose doc
// comment carries
//
//	//safesense:hotpath
//
// promises "no hidden allocation per call", and this analyzer keeps
// the promise honest by flagging the three ways Go code quietly starts
// allocating:
//
//   - fmt calls (Sprintf and friends always allocate, and their
//     variadic ...any boxes every argument);
//   - closures that capture enclosing variables (the capture forces a
//     heap allocation for the closed-over variable);
//   - interface boxing: passing a concrete value to an interface
//     parameter (including variadic ...any), which allocates unless
//     the escape analyzer gets lucky.
//
// The marker is transitive: it propagates along the call graph to
// every statically reachable callee, marked or not — an fmt.Sprintf
// two helpers below a //safesense:hotpath function costs the hot path
// exactly what an inline one would. Transitive findings report the
// full call chain and anchor at the marked function's call site, where
// a //safesense:allow can suppress them; propagation does not continue
// through other marked functions (they are roots of their own) and
// cannot follow calls through function-typed variables.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "forbid fmt calls, capturing closures, and interface boxing in (and statically reachable from) //safesense:hotpath functions",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(p *Pass) {
	facts := allocFacts(p.Graph)
	for _, n := range unitNodes(p) {
		if !effectiveHotPath(p.Graph, n) {
			continue
		}
		// Direct findings: the node is marked (or is a literal inside a
		// marked function) — report every allocation in its own body.
		for _, f := range facts[n] {
			p.Reportf(f.pos, f.hint, "%s", f.direct)
		}
		if !n.HotPath {
			continue
		}
		// Transitive findings: walk out of the marked root. Literals are
		// always expanded (they extend their creator); other marked
		// declarations are roots of their own walks.
		tree := p.Graph.ReachFrom(n, func(x *callgraph.Node) bool {
			return !x.HotPath
		})
		for _, hit := range sortedReached(tree) {
			if effectiveHotPath(p.Graph, hit) {
				continue // covered by a direct report (its own, or its marked base's)
			}
			fs := facts[hit]
			if len(fs) == 0 {
				continue
			}
			chain := callgraph.ChainTo(tree, hit)
			if chain == nil {
				continue
			}
			display := chainDisplay(n, chain)
			display = append(display, fs[0].desc)
			extra := ""
			if len(fs) > 1 {
				extra = " (and more in the same function)"
			}
			p.ReportChain(chain[0].Pos, fs[0].hint, display,
				"transitively %s on a //safesense:hotpath path%s", fs[0].what, extra)
		}
	}
}

// effectiveHotPath reports whether the node carries the hot-path
// discipline directly: it is a marked declaration, or a function
// literal whose lexically enclosing declaration is marked (the direct
// scan of the marked function covers its nested literals).
func effectiveHotPath(g *callgraph.Graph, n *callgraph.Node) bool {
	if n.HotPath {
		return true
	}
	if n.Lit == nil {
		return false
	}
	base, _, ok := strings.Cut(n.ID, "$")
	if !ok {
		return false
	}
	bn := g.Nodes[base]
	return bn != nil && bn.HotPath
}

// allocFact is one direct allocation found in a function body.
type allocFact struct {
	pos    token.Pos
	desc   string // chain-tail form, e.g. "fmt.Sprintf call"
	what   string // transitive sentence form, e.g. "calls fmt.Sprintf (allocates)"
	direct string // message used when the owning function itself is marked
	hint   string
}

// allocFacts scans every node's own body once per graph and memoizes
// its direct allocations, keyed by node.
func allocFacts(g *callgraph.Graph) map[*callgraph.Node][]allocFact {
	const key = "hotpathalloc.facts"
	if cached, ok := g.Cache[key]; ok {
		return cached.(map[*callgraph.Node][]allocFact)
	}
	facts := make(map[*callgraph.Node][]allocFact)
	for _, n := range g.SortedNodes() {
		var fs []allocFact
		n.InspectOwn(func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				fs = append(fs, callAllocFacts(n.Unit.Info, call)...)
			}
			return true
		})
		n.InspectOwnLits(func(lit *ast.FuncLit) {
			if f, ok := closureCaptureFact(n, lit); ok {
				fs = append(fs, f)
			}
		})
		sort.Slice(fs, func(i, j int) bool { return fs[i].pos < fs[j].pos })
		if len(fs) > 0 {
			facts[n] = fs
		}
	}
	g.Cache[key] = facts
	return facts
}

// callAllocFacts classifies one call expression: fmt calls and
// interface boxing of concrete arguments.
func callAllocFacts(info *types.Info, call *ast.CallExpr) []allocFact {
	// fmt anywhere in a hot path is an allocation (and usually a
	// boxing cascade through ...any).
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if obj := info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			return []allocFact{{
				pos:    call.Pos(),
				desc:   "fmt." + obj.Name() + " call",
				what:   "calls fmt." + obj.Name() + " (allocates)",
				direct: "fmt." + obj.Name() + " call allocates on a //safesense:hotpath function",
				hint:   "format outside the hot path, or append to a preallocated []byte with strconv",
			}}
		}
	}
	// Interface boxing: concrete argument, interface parameter.
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() { // conversions are not calls
		return nil
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil // builtin (append, len, ...) — no boxing
	}
	if call.Ellipsis != token.NoPos && call.Ellipsis.IsValid() {
		return nil // slice already built; the boxing happened elsewhere
	}
	var out []allocFact
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at, ok := info.Types[arg]
		if !ok || at.IsNil() || types.IsInterface(at.Type.Underlying()) {
			continue
		}
		out = append(out, allocFact{
			pos:    arg.Pos(),
			desc:   "interface boxing of " + at.Type.String(),
			what:   "boxes concrete " + at.Type.String() + " into an interface parameter (allocates)",
			direct: "passing concrete " + at.Type.String() + " to interface parameter boxes (allocates) on a //safesense:hotpath function",
			hint:   "keep hot-path signatures concrete; convert to interfaces outside the per-step loop",
		})
	}
	return out
}

// closureCaptureFact flags a function literal directly nested in n that
// captures a variable declared in n outside the literal: the capture
// heap-allocates the variable and the closure itself. The allocation
// belongs to n — it happens where the closure value is created.
func closureCaptureFact(n *callgraph.Node, lit *ast.FuncLit) (allocFact, bool) {
	var enclPos, enclEnd token.Pos
	switch {
	case n.Decl != nil:
		enclPos, enclEnd = n.Decl.Pos(), n.Decl.End()
	case n.Lit != nil:
		enclPos, enclEnd = n.Lit.Pos(), n.Lit.End()
	default:
		return allocFact{}, false
	}
	info := n.Unit.Info
	var fact allocFact
	found := false
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		if found {
			return false
		}
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		// Captured iff declared inside the enclosing function but
		// outside the literal.
		if obj.Pos() >= enclPos && obj.Pos() < enclEnd && (obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()) {
			fact = allocFact{
				pos:    lit.Pos(),
				desc:   "capturing closure",
				what:   "creates a closure capturing " + quoteName(obj.Name()) + " (heap-allocates)",
				direct: "closure captures " + quoteName(obj.Name()) + "; the capture heap-allocates on a //safesense:hotpath function",
				hint:   "hoist the closure out of the hot path or pass state explicitly",
			}
			found = true
			return false
		}
		return true
	})
	return fact, found
}

// quoteName quotes a name the way %q would.
func quoteName(name string) string { return "\"" + name + "\"" }
