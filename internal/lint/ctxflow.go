package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces context discipline on the request/job paths the
// distributed arc depends on: campaign cancellation, the worker's lease
// heartbeat, and HTTP shutdown all work only if cancellation actually
// reaches the bottom of the call stack. A function that already
// carries a context.Context (or an *http.Request, whose Context()
// carries the server's) must thread it downward, not mint a fresh
// root:
//
//   - context.Background() / context.TODO() inside such a function
//     detaches everything below it from the caller's cancellation and
//     deadline — the classic "worker that outlives its job" bug. The
//     rare deliberate detach (a sweep that must outlive its HTTP
//     request) documents itself with //safesense:allow ctxflow.
//   - calling pkg.F when the same package declares pkg.FContext with a
//     leading context.Context parameter drops the caller's context on
//     the floor; the Context variant exists precisely to be used here.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "functions that receive a context must pass it on — no fresh context roots, no dropping ctx when a Context variant exists",
	Paths: []string{
		"cmd/safesensed",
		"internal/campaign",
		"internal/dist",
	},
	Run: runCtxFlow,
}

func runCtxFlow(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !carriesContext(p.Info, fn.Type) {
				continue
			}
			checkCtxFlowBody(p, fn.Body)
		}
	}
}

// carriesContext reports whether the function signature includes a
// context.Context or *http.Request parameter.
func carriesContext(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		tv, ok := info.Types[field.Type]
		if !ok {
			continue
		}
		if isContextType(tv.Type) || isHTTPRequestPtr(tv.Type) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func isHTTPRequestPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Request"
}

// checkCtxFlowBody walks a context-carrying function body (nested
// literals included — they inherit the enclosing context) and flags
// fresh context roots and dropped-context calls.
func checkCtxFlowBody(p *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(p.Info, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		if callee.Pkg().Path() == "context" && (callee.Name() == "Background" || callee.Name() == "TODO") {
			p.Reportf(call.Pos(),
				"thread the caller's ctx (or r.Context()) down; a deliberate detach needs //safesense:allow ctxflow with a reason",
				"context.%s() inside a context-carrying function detaches callees from the caller's cancellation", callee.Name())
			return true
		}
		reportDroppedContextVariant(p, call, callee)
		return true
	})
}

// calleeFunc resolves a call's target to a *types.Func, nil for
// builtins, conversions, and calls through variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// reportDroppedContextVariant flags calling pkg.F when pkg.FContext
// (leading context.Context parameter) exists: the caller has a context
// and the API offers a way to pass it.
func reportDroppedContextVariant(p *Pass, call *ast.CallExpr, callee *types.Func) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok || callee.Name() == "" {
		return
	}
	// Methods are skipped: the variant convention (F / FContext) is a
	// package-level API pattern in this codebase.
	if sig.Recv() != nil {
		return
	}
	// Already context-aware? Nothing to flag.
	if sigTakesLeadingContext(sig) {
		return
	}
	variant, ok := callee.Pkg().Scope().Lookup(callee.Name() + "Context").(*types.Func)
	if !ok {
		return
	}
	vsig, ok := variant.Type().(*types.Signature)
	if !ok || !sigTakesLeadingContext(vsig) {
		return
	}
	p.Reportf(call.Pos(),
		"call the Context variant and pass the caller's ctx",
		"%s.%s drops the caller's context; %s.%sContext exists", callee.Pkg().Name(), callee.Name(), callee.Pkg().Name(), callee.Name())
}

// sigTakesLeadingContext reports whether the signature's first
// parameter is a context.Context.
func sigTakesLeadingContext(sig *types.Signature) bool {
	return sig.Params().Len() > 0 && isContextType(sig.Params().At(0).Type())
}
