// Package callgraph builds a module-wide static call graph from the
// syntax trees and type information the lint loader already produces —
// go/ast and go/types only, honoring the repo's no-x/tools constraint.
//
// The graph is the substrate the transitive analyzers ride: determinism
// and hotpathalloc walk it to find violations an arbitrary number of
// calls away from the function that owns the invariant, and report the
// full chain (`sim.Step → dsp.window → time.Now`) so the finding is
// actionable without re-deriving the path by hand.
//
// # Identity across type-check universes
//
// The lint loader type-checks every package twice: once as an analysis
// unit (its own files, possibly with tests) and once through the import
// cache (base files only) when another package imports it. The two runs
// produce distinct go/types object graphs, so *types.Func pointer
// identity does not hold across packages. Nodes are therefore keyed by
// types.Func.FullName() — a stable, path-qualified string
// ("safesense/internal/dsp.Window", "(*safesense/internal/obs.Histogram).Observe")
// that is identical in both universes. A use in one package resolves to
// the defining node in another by name, never by pointer.
//
// # Soundness and precision
//
// The graph over-approximates where it must and under-approximates only
// where Go's dynamism makes resolution impossible without whole-program
// pointer analysis:
//
//   - Direct calls to package-level functions and concrete methods are
//     exact.
//   - Interface dispatch resolves conservatively by implements-matching:
//     an edge is added to method M of every loaded named type whose
//     method-name set covers the interface's full method-name set.
//     Matching is by method names (not signatures) because the two
//     type-check universes make types.Implements unreliable across
//     packages; the cost is coarse matching on one-method interfaces
//     with common names (Write, String).
//   - A function literal gets its own node and a Literal edge from the
//     function that creates it: a created closure is assumed callable.
//     The same applies to method values and function values used as
//     values (Ref edges) — passing sim.Step as a callback counts as
//     calling it.
//   - Calls through function-typed variables and fields are dropped.
//     This is the deliberate escape hatch the clock-seam idiom rides:
//     `var clock = time.Now` followed by `clock()` creates no edge, so
//     seamed wall-clock access never taints callers.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Unit is one type-checked analysis unit, mirroring the lint loader's
// package shape without importing it (the lint package imports this
// one).
type Unit struct {
	// RelPath is the module-relative import path ("" for the module
	// root); external test units share their base package's RelPath.
	RelPath string
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
}

// EdgeKind classifies how a call edge was resolved.
type EdgeKind int

const (
	// KindStatic is a direct call to a package-level function or a
	// method on a concrete receiver.
	KindStatic EdgeKind = iota
	// KindInterface is a conservatively resolved dynamic dispatch: the
	// callee is one of possibly many implementations.
	KindInterface
	// KindLiteral links a function to a closure it creates.
	KindLiteral
	// KindRef links a function to a function or method it references as
	// a value (callback registration, method value).
	KindRef
)

func (k EdgeKind) String() string {
	switch k {
	case KindStatic:
		return "static"
	case KindInterface:
		return "interface"
	case KindLiteral:
		return "literal"
	case KindRef:
		return "ref"
	}
	return "unknown"
}

// Node is one function, method, or function literal in the module.
type Node struct {
	// ID is the stable key: types.Func.FullName() for declared
	// functions, the parent's ID plus "$<ordinal>" for literals.
	ID string
	// Display is the short human form used in diagnostic chains:
	// "sim.RunContext", "obs.(*Histogram).Observe", "sim.RunContext$1".
	Display string
	// RelPath is the module-relative path of the defining unit.
	RelPath string
	// Unit is the analysis unit the node was parsed in.
	Unit *Unit
	// Decl is the declaration (nil for literals); Lit is the literal
	// (nil for declarations). Exactly one is set.
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// HotPath records whether the declaration's doc comment carries the
	// //safesense:hotpath marker (always false for literals; a literal
	// inherits the discipline through its Literal edge).
	HotPath bool

	// Out and In are the call edges, in source order of discovery.
	Out []*Edge
	In  []*Edge
}

// Body returns the node's function body (nil only for bodyless
// declarations, e.g. assembly stubs).
func (n *Node) Body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	if n.Decl != nil {
		return n.Decl.Body
	}
	return nil
}

// Pos returns the node's declaration position.
func (n *Node) Pos() token.Pos {
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	return n.Decl.Pos()
}

// Edge is one resolved call (or closure-creation / reference) site.
type Edge struct {
	Caller, Callee *Node
	// Pos is the call site (the position a diagnostic anchors to when
	// the chain is reported at the caller).
	Pos  token.Pos
	Kind EdgeKind
}

// Graph is the module-wide call graph.
type Graph struct {
	Fset  *token.FileSet
	Nodes map[string]*Node
	// Units are the analysis units the graph was built over, in load
	// order.
	Units []*Unit
	// Cache lets analyzers memoize derived facts (e.g. per-node direct
	// violations) for the graph's lifetime, which the driver scopes to
	// one lint run across all analyzers.
	Cache map[string]any

	// byFunc indexes nodes by the same FullName key as Nodes but is
	// kept separate so synthetic literal IDs never collide with it.
	byFunc map[string]*Node
}

// NodeOf resolves a types.Func (from any type-check universe) to its
// defining node, nil when the function is not declared in a loaded
// unit (stdlib, external, or bodyless).
func (g *Graph) NodeOf(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.byFunc[funcKey(fn)]
}

// funcKey is fn's byFunc key: the full name of its generic origin, so a
// method called on an instantiated type (Store[Capture].Put) resolves to
// its declaration (Store[V].Put).
func funcKey(fn *types.Func) string { return fn.Origin().FullName() }

// SortedNodes returns every node ordered by ID — the deterministic
// iteration order analyzers must use (Nodes is a map).
func (g *Graph) SortedNodes() []*Node {
	out := make([]*Node, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ReachFrom walks the graph breadth-first from start and returns the
// parent-edge tree: for every reached node, the edge it was first
// discovered through. Expansion continues through a reached node only
// when through(node) is true (start itself is always expanded), so
// callers can stop propagation at analysis boundaries — e.g. "do not
// walk past another in-scope function; it files its own report". The
// BFS queue and neighbor order follow edge insertion order, which is
// source order, so chains are deterministic.
func (g *Graph) ReachFrom(start *Node, through func(*Node) bool) map[*Node]*Edge {
	tree := make(map[*Node]*Edge)
	queue := []*Node{start}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n != start && through != nil && !through(n) {
			continue
		}
		for _, e := range n.Out {
			if e.Callee == start {
				continue
			}
			if _, seen := tree[e.Callee]; seen {
				continue
			}
			tree[e.Callee] = e
			queue = append(queue, e.Callee)
		}
	}
	return tree
}

// ChainTo walks the parent-edge tree from target back to the BFS start
// and returns the edge path start→…→target (nil when target was not
// reached).
func ChainTo(tree map[*Node]*Edge, target *Node) []*Edge {
	var rev []*Edge
	for n := target; ; {
		e, ok := tree[n]
		if !ok {
			if len(rev) == 0 {
				return nil
			}
			break
		}
		rev = append(rev, e)
		n = e.Caller
		if len(rev) > len(tree)+1 {
			return nil // defensive: corrupt tree
		}
	}
	out := make([]*Edge, len(rev))
	for i, e := range rev {
		out[len(rev)-1-i] = e
	}
	return out
}

// InspectOwn walks the node's own body, skipping the bodies of nested
// function literals — those are separate nodes reached through Literal
// edges, so a fact found inside one must attach to the literal's node,
// not its parent's.
func (n *Node) InspectOwn(fn func(ast.Node) bool) {
	body := n.Body()
	if body == nil {
		return
	}
	ast.Inspect(body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			// The walk starts inside n's body, so any literal seen here
			// is a nested one — a separate node.
			return false
		}
		return fn(x)
	})
}
