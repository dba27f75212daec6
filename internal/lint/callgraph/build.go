package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Build constructs the call graph over the given units. Two passes: the
// first registers a node for every declared function, method, and
// function literal (so forward and cross-package references resolve);
// the second walks every node's own body and adds edges.
func Build(fset *token.FileSet, units []*Unit) *Graph {
	g := &Graph{
		Fset:   fset,
		Nodes:  make(map[string]*Node),
		Units:  units,
		Cache:  make(map[string]any),
		byFunc: make(map[string]*Node),
	}
	b := &builder{
		g:          g,
		byLit:      make(map[*ast.FuncLit]*Node),
		ifaceIndex: buildIfaceIndex(units),
	}
	for _, u := range units {
		b.registerUnit(u)
	}
	for _, n := range g.SortedNodes() {
		b.connectNode(n)
	}
	return g
}

// builder carries construction state.
type builder struct {
	g     *Graph
	byLit map[*ast.FuncLit]*Node
	// ifaceIndex maps a method name to every concrete method of that
	// name declared on a named type in a loaded unit, together with the
	// full method-name set of its receiver type — the data conservative
	// interface resolution matches against.
	ifaceIndex map[string][]*implMethod
}

// implMethod is one concrete method, as a dispatch candidate.
type implMethod struct {
	fn *types.Func // the method object in its defining unit's universe
	// recvMethods is the receiver type's complete method-name set
	// (pointer method set, so value methods are included).
	recvMethods map[string]bool
}

// buildIfaceIndex scans every named type declared in the units and
// indexes its (pointer) method set by method name.
func buildIfaceIndex(units []*Unit) map[string][]*implMethod {
	idx := make(map[string][]*implMethod)
	for _, u := range units {
		scope := u.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			mset := types.NewMethodSet(types.NewPointer(named))
			if mset.Len() == 0 {
				continue
			}
			names := make(map[string]bool, mset.Len())
			for i := 0; i < mset.Len(); i++ {
				names[mset.At(i).Obj().Name()] = true
			}
			for i := 0; i < mset.Len(); i++ {
				m, ok := mset.At(i).Obj().(*types.Func)
				if !ok {
					continue
				}
				idx[m.Name()] = append(idx[m.Name()], &implMethod{fn: m, recvMethods: names})
			}
		}
	}
	return idx
}

// registerUnit creates nodes for every FuncDecl (and, recursively, the
// FuncLits inside it) in the unit.
func (b *builder) registerUnit(u *Unit) {
	for _, f := range u.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := u.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			id := obj.FullName()
			// Multiple init functions in one package share a FullName;
			// suffix duplicates so every body keeps its own node (they
			// are never call targets, so byFunc keeps the first).
			for i := 2; ; i++ {
				if _, taken := b.g.Nodes[id]; !taken {
					break
				}
				id = fmt.Sprintf("%s#%d", obj.FullName(), i)
			}
			n := &Node{
				ID:      id,
				Display: displayName(u, fd, obj),
				RelPath: u.RelPath,
				Unit:    u,
				Decl:    fd,
				HotPath: docHas(fd, "//safesense:hotpath"),
			}
			b.g.Nodes[n.ID] = n
			if _, taken := b.g.byFunc[funcKey(obj)]; !taken {
				b.g.byFunc[funcKey(obj)] = n
			}
			b.registerLiterals(u, n)
		}
		// Function literals in package-level var initializers get nodes
		// parented on a per-file synthetic "init" node so their bodies
		// are still analyzed.
		b.registerVarLiterals(u, f)
	}
}

// registerLiterals creates child nodes for the function literals nested
// directly inside parent's own body, recursing so every literal at any
// depth gets a node. Ordinals count literals in source order within the
// parent, so IDs are stable across runs.
func (b *builder) registerLiterals(u *Unit, parent *Node) {
	ord := 0
	parent.InspectOwnLits(func(lit *ast.FuncLit) {
		ord++
		child := &Node{
			ID:      fmt.Sprintf("%s$%d", parent.ID, ord),
			Display: fmt.Sprintf("%s$%d", parent.Display, ord),
			RelPath: u.RelPath,
			Unit:    u,
			Lit:     lit,
		}
		b.g.Nodes[child.ID] = child
		b.byLit[lit] = child
		b.registerLiterals(u, child)
	})
}

// registerVarLiterals handles closures assigned in package-level var
// declarations (`var f = func() {...}`).
func (b *builder) registerVarLiterals(u *Unit, f *ast.File) {
	ord := 0
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		ast.Inspect(gd, func(x ast.Node) bool {
			lit, ok := x.(*ast.FuncLit)
			if !ok {
				return true
			}
			ord++
			pos := b.g.Fset.Position(gd.Pos())
			child := &Node{
				ID:      fmt.Sprintf("%s.<var>@%s:%d$%d", u.Pkg.Path(), pos.Filename, pos.Line, ord),
				Display: fmt.Sprintf("%s.<var>$%d", u.Pkg.Name(), ord),
				RelPath: u.RelPath,
				Unit:    u,
				Lit:     lit,
			}
			b.g.Nodes[child.ID] = child
			b.byLit[lit] = child
			b.registerLiterals(u, child)
			return false
		})
	}
}

// InspectOwnLits visits the function literals nested directly inside
// the node's own body (not those inside deeper literals).
func (n *Node) InspectOwnLits(fn func(*ast.FuncLit)) {
	body := n.Body()
	if body == nil {
		return
	}
	ast.Inspect(body, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok {
			fn(lit)
			return false
		}
		return true
	})
}

// connectNode walks one node's own body (nested literals excluded —
// they connect as their own nodes) and resolves its call and reference
// sites.
func (b *builder) connectNode(n *Node) {
	body := n.Body()
	if body == nil {
		return
	}
	u := n.Unit
	// handled marks identifiers already consumed as a call target or a
	// selector reference, so the bare-ident pass below does not
	// double-count them. ast.Inspect visits parents before children, so
	// the marks always land first.
	handled := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if child := b.byLit[x]; child != nil {
				b.edge(n, child, x.Pos(), KindLiteral)
			}
			return false
		case *ast.CallExpr:
			switch fun := ast.Unparen(x.Fun).(type) {
			case *ast.Ident:
				handled[fun] = true
			case *ast.SelectorExpr:
				handled[fun.Sel] = true
			}
			b.resolveCall(u, n, x, ast.Unparen(x.Fun))
		case *ast.SelectorExpr:
			if !handled[x.Sel] {
				handled[x.Sel] = true
				b.resolveSelRef(u, n, x)
			}
		case *ast.Ident:
			if !handled[x] {
				b.resolveIdentRef(u, n, x)
			}
		}
		return true
	})
}

// resolveCall adds edges for a call expression.
func (b *builder) resolveCall(u *Unit, n *Node, call *ast.CallExpr, fun ast.Expr) {
	switch fun := fun.(type) {
	case *ast.Ident:
		// Package-local function call. Builtins, conversions, and calls
		// through variables resolve to non-Func objects and are dropped
		// (the latter deliberately: the clock-seam idiom).
		if obj, ok := u.Info.Uses[fun].(*types.Func); ok {
			b.staticEdge(n, obj, call.Pos())
		}
	case *ast.SelectorExpr:
		if selinfo, ok := u.Info.Selections[fun]; ok {
			// Method call: concrete or interface dispatch.
			recv := selinfo.Recv()
			if types.IsInterface(recv.Underlying()) {
				b.interfaceEdges(n, recv, fun.Sel.Name, call.Pos())
				return
			}
			if m, ok := selinfo.Obj().(*types.Func); ok {
				b.staticEdge(n, m, call.Pos())
			}
			return
		}
		// Qualified call: pkg.Func.
		if obj, ok := u.Info.Uses[fun.Sel].(*types.Func); ok {
			b.staticEdge(n, obj, call.Pos())
		}
	}
}

// resolveIdentRef adds a Ref edge when a bare identifier used as a
// value names a declared package-level function. Method idents are
// skipped here: a method value always appears under a SelectorExpr,
// which resolveSelRef handles with receiver context.
func (b *builder) resolveIdentRef(u *Unit, n *Node, id *ast.Ident) {
	obj, ok := u.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		return
	}
	if callee := b.g.byFunc[funcKey(obj)]; callee != nil {
		b.edge(n, callee, id.Pos(), KindRef)
	}
}

// resolveSelRef adds a Ref edge for a selector used as a value: a
// qualified function (pkg.Func) or a method value (x.M). Interface
// method values resolve conservatively like dispatch.
func (b *builder) resolveSelRef(u *Unit, n *Node, sel *ast.SelectorExpr) {
	if selinfo, ok := u.Info.Selections[sel]; ok {
		recv := selinfo.Recv()
		if types.IsInterface(recv.Underlying()) {
			b.interfaceEdges(n, recv, sel.Sel.Name, sel.Pos())
			return
		}
		if m, ok := selinfo.Obj().(*types.Func); ok {
			if callee := b.g.byFunc[funcKey(m)]; callee != nil {
				b.edge(n, callee, sel.Pos(), KindRef)
			}
		}
		return
	}
	if obj, ok := u.Info.Uses[sel.Sel].(*types.Func); ok {
		if callee := b.g.byFunc[funcKey(obj)]; callee != nil {
			b.edge(n, callee, sel.Pos(), KindRef)
		}
	}
}

// staticEdge resolves a concrete callee object to its node (if declared
// in a loaded unit) and records the edge.
func (b *builder) staticEdge(n *Node, fn *types.Func, pos token.Pos) {
	if callee := b.g.byFunc[funcKey(fn)]; callee != nil {
		b.edge(n, callee, pos, KindStatic)
	}
}

// interfaceEdges adds one edge per conservative dispatch candidate: a
// loaded concrete method named m whose receiver's method-name set
// covers the interface's full method-name set.
func (b *builder) interfaceEdges(n *Node, recv types.Type, m string, pos token.Pos) {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return
	}
	required := make([]string, 0, iface.NumMethods())
	for i := 0; i < iface.NumMethods(); i++ {
		required = append(required, iface.Method(i).Name())
	}
	for _, cand := range b.ifaceIndex[m] {
		covers := true
		for _, r := range required {
			if !cand.recvMethods[r] {
				covers = false
				break
			}
		}
		if !covers {
			continue
		}
		if callee := b.g.byFunc[funcKey(cand.fn)]; callee != nil {
			b.edge(n, callee, pos, KindInterface)
		}
	}
}

// edge records caller→callee, deduplicating exact repeats at the same
// position.
func (b *builder) edge(caller, callee *Node, pos token.Pos, kind EdgeKind) {
	for _, e := range caller.Out {
		if e.Callee == callee && e.Pos == pos && e.Kind == kind {
			return
		}
	}
	e := &Edge{Caller: caller, Callee: callee, Pos: pos, Kind: kind}
	caller.Out = append(caller.Out, e)
	callee.In = append(callee.In, e)
}

// displayName renders the short chain form: "sim.RunContext",
// "obs.(*Histogram).Observe".
func displayName(u *Unit, fd *ast.FuncDecl, obj *types.Func) string {
	pkg := u.Pkg.Name()
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || fd.Recv == nil {
		return pkg + "." + obj.Name()
	}
	recv := types.TypeString(sig.Recv().Type(), func(*types.Package) string { return "" })
	if strings.HasPrefix(recv, "*") {
		recv = "(" + recv + ")"
	}
	return pkg + "." + recv + "." + obj.Name()
}

// docHas reports whether the declaration's doc comment carries the
// given directive line (duplicated from the lint package to avoid an
// import cycle; the marker syntax is one trimmed line).
func docHas(fd *ast.FuncDecl, marker string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == marker {
			return true
		}
	}
	return false
}
