package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"safesense/internal/lint/callgraph"
)

// DeadCode reports every function and method no program can run. A
// function is live when the module-wide call graph reaches it from a
// root:
//
//   - main and every init function of every loaded package;
//   - a function referenced from a package-level var initializer;
//   - the exported API of the module's root package, including the
//     exported methods of the types it re-exports by alias;
//   - a test in a different package (a cross-package test oracle such
//     as a spectral-radius check counts as a caller; a function whose
//     only callers are its own package's tests does not);
//   - a method whose name matches a method of an interface type the
//     module declares or references (the graph's name-matching
//     interface resolution, applied as a root so values stored behind
//     interfaces the module never calls through statically stay live),
//     or of an interface the standard library asserts at run time on
//     values it is handed as any or error (fmt.Stringer, json.Marshaler,
//     the errors.Unwrap chain, ...).
//
// Everything else is dead: delete it, or move it into the _test.go
// file that still uses it. The analysis needs the test files loaded;
// with -tests=false a function kept only by another package's test is
// reported.
var DeadCode = &Analyzer{
	Name: "deadcode",
	Doc:  "every function is reachable from a main/init, a var initializer, the root package's API, or another package's test",
	Run:  runDeadCode,
}

const deadCodeHint = "delete it, or move it into the _test.go file that uses it"

// runtimeAssertedMethods are the methods of the interfaces fmt,
// encoding/json and errors look for by type assertion, which no static
// reference in the module names.
var runtimeAssertedMethods = []string{
	"Error", "String", "GoString", "Format",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
	"Unwrap", "Is", "As",
}

func runDeadCode(p *Pass) {
	live := liveFuncs(p.Graph)
	for _, n := range p.Graph.SortedNodes() {
		if n.Decl == nil || n.Unit.Pkg != p.Pkg || live[n] || n.Decl.Name.Name == "_" || inTestFile(p.Graph, n) {
			continue
		}
		p.Reportf(n.Decl.Name.Pos(), deadCodeHint,
			"%s is unreachable: no main, init, var initializer, root-package export or other package's test calls it", n.Display)
	}
}

// liveFuncs computes (once per graph) the set of nodes reachable from
// the deadcode roots.
func liveFuncs(g *callgraph.Graph) map[*callgraph.Node]bool {
	const key = "deadcode.live"
	if live, ok := g.Cache[key].(map[*callgraph.Node]bool); ok {
		return live
	}
	ifaceNames := interfaceMethodNames(g.Units)
	lits := make(map[*ast.FuncLit]*callgraph.Node)
	var roots, tests []*callgraph.Node
	for _, n := range g.SortedNodes() {
		if n.Lit != nil {
			lits[n.Lit] = n
		}
		switch {
		case inTestFile(g, n):
			tests = append(tests, n)
		case n.Decl == nil:
			// A literal lives or dies with the function or var
			// initializer that declares it.
		case n.Decl.Recv == nil && (n.Decl.Name.Name == "init" || n.Decl.Name.Name == "main" && n.Unit.Pkg.Name() == "main"):
			roots = append(roots, n)
		case n.Decl.Recv != nil && ifaceNames[n.Decl.Name.Name]:
			roots = append(roots, n)
		}
	}
	for _, u := range g.Units {
		for _, f := range u.Files {
			refs := varInitRefs(g, u, f, lits)
			if !strings.HasSuffix(g.Fset.Position(f.Pos()).Filename, "_test.go") {
				roots = append(roots, refs...)
				continue
			}
			// A test file's initializer is test code: what it names in
			// its own package's non-test code does not count.
			for _, n := range refs {
				if inTestFile(g, n) || n.RelPath != u.RelPath {
					tests = append(tests, n)
				}
			}
		}
		if u.RelPath == "" && !strings.HasSuffix(u.Pkg.Name(), "_test") {
			roots = append(roots, rootExports(g, u)...)
		}
	}
	roots = append(roots, crossPackageTestCallees(g, tests)...)

	live := make(map[*callgraph.Node]bool)
	queue := roots
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if live[n] {
			continue
		}
		live[n] = true
		for _, e := range n.Out {
			// Non-test code reaches test code only through name-matched
			// interface dispatch; a test type's method keeps nothing
			// alive.
			if !live[e.Callee] && !inTestFile(g, e.Callee) {
				queue = append(queue, e.Callee)
			}
		}
	}
	g.Cache[key] = live
	return live
}

// crossPackageTestCallees walks the test-file code of every package
// (test functions, their helpers and closures, test var initializers),
// starting from tests, and returns the non-test functions it calls in
// other packages. Calls into the test's own package do not count: code
// only its own tests reach is dead.
func crossPackageTestCallees(g *callgraph.Graph, tests []*callgraph.Node) []*callgraph.Node {
	var out []*callgraph.Node
	seen := make(map[*callgraph.Node]bool)
	queue := tests
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if seen[n] {
			continue
		}
		seen[n] = true
		if !inTestFile(g, n) {
			out = append(out, n)
			continue
		}
		for _, e := range n.Out {
			if inTestFile(g, e.Callee) || e.Callee.RelPath != n.RelPath {
				queue = append(queue, e.Callee)
			}
		}
	}
	return out
}

// varInitRefs returns the module functions one file's package-level
// declarations name (called or taken as values) and the function
// literals they declare.
func varInitRefs(g *callgraph.Graph, u *callgraph.Unit, f *ast.File, lits map[*ast.FuncLit]*callgraph.Node) []*callgraph.Node {
	var out []*callgraph.Node
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		ast.Inspect(gd, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				// The literal's body is its own graph node.
				if n := lits[x]; n != nil {
					out = append(out, n)
				}
				return false
			case *ast.Ident:
				if fn, ok := u.Info.Uses[x].(*types.Func); ok {
					if n := g.NodeOf(fn); n != nil {
						out = append(out, n)
					}
				}
			}
			return true
		})
	}
	return out
}

// rootExports returns the root package's exported functions and the
// exported methods of every type it exports, aliases included.
func rootExports(g *callgraph.Graph, u *callgraph.Unit) []*callgraph.Node {
	var out []*callgraph.Node
	add := func(fn *types.Func) {
		if n := g.NodeOf(fn); n != nil && fn.Exported() {
			out = append(out, n)
		}
	}
	scope := u.Pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			add(obj)
		case *types.TypeName:
			if !obj.Exported() {
				continue
			}
			mset := types.NewMethodSet(types.NewPointer(obj.Type()))
			for i := 0; i < mset.Len(); i++ {
				if fn, ok := mset.At(i).Obj().(*types.Func); ok {
					add(fn)
				}
			}
		}
	}
	return out
}

// interfaceMethodNames returns the method names of every interface
// type the units declare or reference: in a type expression, as the
// type of any expression or object, or inside the signature of a
// function they call (io.Writer in fmt.Fprintf's parameters). Named
// types are not expanded, so the walk stays inside the types the
// module itself touches.
func interfaceMethodNames(units []*callgraph.Unit) map[string]bool {
	names := make(map[string]bool)
	for _, m := range runtimeAssertedMethods {
		names[m] = true
	}
	seen := make(map[types.Type]bool)
	var visit func(types.Type)
	visit = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			visit(types.Unalias(t))
		case *types.Named:
			if _, ok := t.Underlying().(*types.Interface); ok {
				visit(t.Underlying())
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				names[t.Method(i).Name()] = true
			}
		case *types.Pointer:
			visit(t.Elem())
		case *types.Slice:
			visit(t.Elem())
		case *types.Array:
			visit(t.Elem())
		case *types.Chan:
			visit(t.Elem())
		case *types.Map:
			visit(t.Key())
			visit(t.Elem())
		case *types.Signature:
			visit(t.Params())
			visit(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				visit(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				visit(t.Field(i).Type())
			}
		}
	}
	for _, u := range units {
		for _, tv := range u.Info.Types {
			visit(tv.Type)
		}
		for _, obj := range u.Info.Defs {
			if obj != nil {
				visit(obj.Type())
			}
		}
		for _, obj := range u.Info.Uses {
			visit(obj.Type())
		}
	}
	return names
}

// inTestFile reports whether the node is declared in a _test.go file.
func inTestFile(g *callgraph.Graph, n *callgraph.Node) bool {
	return strings.HasSuffix(g.Fset.Position(n.Pos()).Filename, "_test.go")
}
