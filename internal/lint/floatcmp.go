package lint

import (
	"bytes"
	"go/ast"
	"go/constant"
	"go/printer"
	"go/token"
	"go/types"
)

// FloatCmp forbids raw == / != between floating-point (or complex)
// operands in the numeric kernels. Rounding makes exact equality of
// computed floats meaningless — a QR solve that is correct to 1e-15
// still fails `x == 4` — and such comparisons are how numerically
// careful code rots one refactor at a time. Approved forms:
//
//   - comparison against an exact constant zero (`det == 0`): a
//     well-defined IEEE test used as a singularity / degeneracy guard;
//   - self-comparison (`x != x`): the portable NaN test;
//   - anything inside a function whose doc comment carries the
//     //safesense:floatcmp-helper marker — that is where the epsilon
//     logic itself lives;
//   - a line granted `//safesense:allow floatcmp <reason>`.
//
// Everything else must go through an epsilon helper.
var FloatCmp = &Analyzer{
	Name: "floatcmp",
	Doc:  "forbid raw == / != on floating-point operands outside approved epsilon helpers",
	Paths: []string{
		"internal/baseline",
		"internal/dsp",
		"internal/lateral",
		"internal/stats",
	},
	Run: runFloatCmp,
}

// HelperMarker exempts a function's body from floatcmp: it marks the
// approved epsilon helpers themselves.
const HelperMarker = "//safesense:floatcmp-helper"

func runFloatCmp(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || FuncDocHas(fn, HelperMarker) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				bin, ok := n.(*ast.BinaryExpr)
				if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
					return true
				}
				checkFloatCmp(p, bin)
				return true
			})
		}
	}
}

func checkFloatCmp(p *Pass, bin *ast.BinaryExpr) {
	xt, xok := p.Info.Types[bin.X]
	yt, yok := p.Info.Types[bin.Y]
	if !xok || !yok {
		return
	}
	if !isFloatish(xt.Type) && !isFloatish(yt.Type) {
		return
	}
	// Exact constant zero is a well-defined guard, not an epsilon bug.
	if isConstZero(xt) || isConstZero(yt) {
		return
	}
	// x != x / x == x is the NaN idiom.
	if exprString(p.Fset, bin.X) == exprString(p.Fset, bin.Y) {
		return
	}
	p.Reportf(bin.OpPos,
		"use an epsilon helper (math.Abs(a-b) <= tol), or mark the helper itself with "+HelperMarker,
		"raw floating-point %s comparison", bin.Op)
}

// isFloatish reports whether t's underlying type is floating point or
// complex (including named types over them).
func isFloatish(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// isConstZero reports whether the expression is a compile-time
// constant equal to exactly zero (covers literals and named zero
// constants).
func isConstZero(tv types.TypeAndValue) bool {
	if tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	case constant.Complex:
		return constant.Sign(constant.Real(tv.Value)) == 0 && constant.Sign(constant.Imag(tv.Value)) == 0
	}
	return false
}

// exprString renders an expression for textual identity checks.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, fset, e)
	return buf.String()
}
