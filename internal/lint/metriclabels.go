package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// MetricLabels keeps the internal/obs metric families safe to run
// under production traffic. Two failure modes matter:
//
//   - non-constant label *keys* at registration make the schema a
//     runtime accident (and a re-registration panic waiting to
//     happen);
//   - unbounded label *values* at With() call sites — a request ID, a
//     formatted float, an error string — grow one child per distinct
//     value and turn the registry into a memory leak.
//
// Statically proving boundedness is impossible, so the analyzer
// targets the constructors of unboundedness instead: values built by
// fmt/strconv formatting, error/Stringer rendering, time formatting,
// or string concatenation are flagged at the call site. Plain
// variables are trusted — bounding them (as the safesensed route label,
// the serving mux pattern, does for HTTP routes) is the documented
// contract of the call site.
var MetricLabels = &Analyzer{
	Name: "metriclabels",
	Doc:  "require constant label keys and bounded label-value cardinality at obs family call sites",
	Run:  runMetricLabels,
}

// maxMetricLabels caps the label-key count per family: each extra key
// multiplies child cardinality.
const maxMetricLabels = 4

// unboundedLabelKeys are key names that advertise per-entity
// cardinality no matter how the values are produced.
var unboundedLabelKeys = map[string]bool{
	"id": true, "request_id": true, "trace_id": true, "span_id": true,
	"seed": true, "job": true, "index": true, "user": true,
	"path": true, "url": true, "error": true,
}

func runMetricLabels(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := p.Info.Uses[sel.Sel].(*types.Func)
			if !ok || obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "internal/obs") {
				return true
			}
			sig, ok := obj.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			switch obj.Name() {
			case "Counter", "Gauge", "Histogram":
				if recvNamed(sig) == "Registry" {
					checkRegistration(p, call, obj.Name())
				}
			case "With":
				checkWithValues(p, call)
			}
			return true
		})
	}
}

func recvNamed(sig *types.Signature) string {
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// checkRegistration validates a Registry.Counter/Gauge/Histogram call:
// constant name, constant well-formed label keys, bounded key count.
func checkRegistration(p *Pass, call *ast.CallExpr, kind string) {
	fixed := 2 // name, help
	if kind == "Histogram" {
		fixed = 3 // name, help, buckets
	}
	if len(call.Args) > 0 {
		if s, ok := constString(p, call.Args[0]); !ok {
			p.Reportf(call.Args[0].Pos(),
				"declare the metric name as a string constant",
				"metric name must be a compile-time constant")
		} else if !wellFormedMetricIdent(s) {
			p.Reportf(call.Args[0].Pos(),
				"use snake_case: [a-z][a-z0-9_]*",
				"metric name %q is not a well-formed identifier", s)
		}
	}
	if call.Ellipsis.IsValid() {
		p.Reportf(call.Ellipsis,
			"list label keys literally at the registration site",
			"label keys passed as a slice cannot be statically checked")
		return
	}
	if len(call.Args) <= fixed {
		return
	}
	labels := call.Args[fixed:]
	if len(labels) > maxMetricLabels {
		p.Reportf(labels[maxMetricLabels].Pos(),
			"split the family or drop a dimension; each key multiplies child cardinality",
			"%d label keys exceeds the limit of %d", len(labels), maxMetricLabels)
	}
	for _, arg := range labels {
		s, ok := constString(p, arg)
		if !ok {
			p.Reportf(arg.Pos(),
				"label keys are schema: declare them as string constants",
				"label key must be a compile-time constant")
			continue
		}
		if !wellFormedMetricIdent(s) {
			p.Reportf(arg.Pos(),
				"use snake_case: [a-z][a-z0-9_]*",
				"label key %q is not a well-formed identifier", s)
		}
		if unboundedLabelKeys[s] {
			p.Reportf(arg.Pos(),
				"per-entity identity belongs in logs and traces, not metric labels",
				"label key %q implies unbounded cardinality", s)
		}
	}
}

// checkWithValues flags label values built by known constructors of
// unbounded strings.
func checkWithValues(p *Pass, call *ast.CallExpr) {
	for _, arg := range call.Args {
		if desc := unboundedValueExpr(p, arg); desc != "" {
			p.Reportf(arg.Pos(),
				"map the value onto a fixed vocabulary first (see Server.route/statusLabel in cmd/safesensed)",
				"label value built by %s risks unbounded cardinality", desc)
		}
	}
}

// unboundedValueExpr walks an expression for formatting constructors;
// it returns a description of the first offender, or "".
func unboundedValueExpr(p *Pass, e ast.Expr) string {
	desc := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if desc != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.BinaryExpr:
			// Non-constant string concatenation manufactures new values.
			if tv, ok := p.Info.Types[n]; ok && tv.Value == nil {
				if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					desc = "string concatenation"
				}
			}
		case *ast.CallExpr:
			desc = unboundedCall(p, n)
		}
		return desc == ""
	})
	return desc
}

func unboundedCall(p *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		// Conversions like string(code) are flagged too: they usually
		// wrap an unbounded numeric or byte source.
		if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				return "a string conversion"
			}
		}
		return ""
	}
	obj := p.Info.Uses[sel.Sel]
	if obj == nil {
		return ""
	}
	if pkg := obj.Pkg(); pkg != nil {
		switch pkg.Path() {
		case "fmt":
			return "fmt." + obj.Name()
		case "strconv":
			return "strconv." + obj.Name()
		}
	}
	// Error / Stringer / time rendering produce per-entity strings.
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			switch fn.Name() {
			case "Error", "String", "Format":
				if sig.Params().Len() == len(call.Args) {
					return fn.Name() + "() rendering"
				}
			}
		}
	}
	return ""
}

func wellFormedMetricIdent(s string) bool {
	if s == "" || s[0] < 'a' || s[0] > 'z' {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}

// constString returns the expression's compile-time string value.
func constString(p *Pass, e ast.Expr) (string, bool) {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
