package lint

import (
	"go/ast"
	"go/token"
)

// GoroLeak demands a provable termination path for every goroutine
// spawned in the long-lived layers (campaign engine, distributed
// coordinator/worker, observability hub). A goroutine that loops
// forever without a cancellation signal outlives the work it serves —
// a leaked lease heartbeat is exactly the failure mode the dist smoke
// tests exist to catch, and this
// analyzer machine-checks the structural half:
//
//   - a goroutine body without loops terminates when its work does;
//   - `for ... ; cond ; ...` and `for range x` loops are bounded by
//     their condition / the ranged container (ranging a channel
//     terminates when the channel closes — the close is the signal);
//   - a bare `for { }` loop must both receive from a channel (a select
//     case or a direct <-ch — ctx.Done(), a ticker, a close-signal
//     channel) and have an exit (return, or a break out of the loop),
//     the select-on-ctx.Done idiom;
//   - a `go` statement whose target cannot be resolved statically
//     (a call through a function-typed variable, or a function outside
//     the module) cannot be proved and is flagged.
//
// A goroutine that is intentionally process-lifetime (a metrics
// flusher behind sync.Once) registers the exception with
// //safesense:allow goroleak and a reason.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "every goroutine in the long-lived layers needs a provable termination path (ctx.Done/close signal, bounded loop, or documented exception)",
	Paths: []string{
		"internal/campaign",
		"internal/dist",
		"internal/obs",
	},
	Run: runGoroLeak,
}

func runGoroLeak(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					checkGoStmt(p, g)
				}
				return true
			})
		}
	}
}

// checkGoStmt resolves the goroutine's target body and applies the
// termination heuristics.
func checkGoStmt(p *Pass, g *ast.GoStmt) {
	fun := ast.Unparen(g.Call.Fun)
	if lit, ok := fun.(*ast.FuncLit); ok {
		reportUnprovableLoops(p, g, lit.Body)
		return
	}
	fn := calleeFunc(p.Info, g.Call)
	if fn == nil {
		p.Reportf(g.Pos(),
			"spawn a named function or literal so the termination path is visible, or document with //safesense:allow goroleak",
			"goroutine target is a function value; termination cannot be proved statically")
		return
	}
	node := p.Graph.NodeOf(fn)
	if node == nil || node.Body() == nil {
		p.Reportf(g.Pos(),
			"wrap the call in a literal that selects on ctx.Done, or document with //safesense:allow goroleak",
			"goroutine target %s is outside the module; termination cannot be proved statically", fn.FullName())
		return
	}
	reportUnprovableLoops(p, g, node.Body())
}

// reportUnprovableLoops flags the go statement when the target body
// contains a condition-less `for { }` loop with no channel receive or
// no exit. Bounded loops and range loops pass; a body with no loops
// terminates with its work.
func reportUnprovableLoops(p *Pass, g *ast.GoStmt, body *ast.BlockStmt) {
	reported := false
	ast.Inspect(body, func(n ast.Node) bool {
		if reported {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			// A literal nested inside the goroutine body runs only if
			// something calls or spawns it; its loops are judged there.
			return false
		}
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		switch {
		case !loopReceives(loop):
			p.Reportf(g.Pos(),
				"select on ctx.Done() or a close-signal channel inside the loop",
				"goroutine loops forever without receiving from any channel; no cancellation can reach it")
			reported = true
		case !loopExits(loop):
			p.Reportf(g.Pos(),
				"return (or break) when ctx.Done()/the close signal fires",
				"goroutine receives from a channel but never exits its loop; cancellation is received and ignored")
			reported = true
		}
		return !reported
	})
}

// loopReceives reports whether the loop body contains a channel
// receive: a <-ch expression, a select receive case, or a range over a
// channel. Function literals are skipped — their control flow is not
// the loop's.
func loopReceives(loop *ast.ForStmt) bool {
	found := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.SelectStmt:
			for _, cl := range n.Body.List {
				comm := cl.(*ast.CommClause)
				if comm.Comm == nil {
					continue // default case
				}
				if _, isSend := comm.Comm.(*ast.SendStmt); !isSend {
					found = true
				}
			}
		case *ast.RangeStmt:
			// range over a channel receives; over anything else it is a
			// bounded inner loop either way.
			found = true
		}
		return !found
	})
	return found
}

// loopExits reports whether control can leave the loop: a return
// anywhere in the body (skipping nested literals), or a break that
// targets this loop — unlabeled and not nested inside an inner
// for/range/switch/select (which would consume it). Labeled breaks are
// accepted generously (resolving labels is not worth the precision).
func loopExits(loop *ast.ForStmt) bool {
	return stmtsExit(loop.Body.List, true)
}

// stmtsExit walks statements; breakable records whether an unlabeled
// break here still targets the goroutine's outer loop.
func stmtsExit(stmts []ast.Stmt, breakable bool) bool {
	for _, s := range stmts {
		if stmtExits(s, breakable) {
			return true
		}
	}
	return false
}

func stmtExits(s ast.Stmt, breakable bool) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		if s.Tok == token.BREAK && (breakable || s.Label != nil) {
			return true
		}
	case *ast.BlockStmt:
		return stmtsExit(s.List, breakable)
	case *ast.IfStmt:
		if stmtExits(s.Body, breakable) {
			return true
		}
		if s.Else != nil {
			return stmtExits(s.Else, breakable)
		}
	case *ast.ForStmt:
		return stmtsExit(s.Body.List, false)
	case *ast.RangeStmt:
		return stmtsExit(s.Body.List, false)
	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			if stmtsExit(cl.(*ast.CommClause).Body, false) {
				return true
			}
		}
	case *ast.SwitchStmt:
		for _, cl := range s.Body.List {
			if stmtsExit(cl.(*ast.CaseClause).Body, false) {
				return true
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range s.Body.List {
			if stmtsExit(cl.(*ast.CaseClause).Body, false) {
				return true
			}
		}
	case *ast.LabeledStmt:
		return stmtExits(s.Stmt, breakable)
	}
	return false
}
