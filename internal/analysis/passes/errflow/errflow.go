// Package errflow enforces the repo's typed-error discipline:
// sentinel and typed errors (ErrOverloaded, ErrDeadline, io.EOF, ...)
// survive wrapping only if callers test them with errors.Is/errors.As,
// so comparing a possibly-wrapped error with == / != or matching its
// Error() string silently breaks the moment anyone adds a %w wrap
// upstream.
//
// Flagged, from types alone:
//
//   - `err == ErrFoo` / `err != ErrFoo`, where ErrFoo is a package-level
//     error variable (a sentinel) and err is any other error value;
//   - `switch err { case ErrFoo: }`, which compares with == underneath;
//   - decisions on message text: err.Error() compared with ==/!=, or
//     passed to strings.Contains/HasPrefix/HasSuffix/EqualFold/Index.
//
// Test files are exempt: tests may pin exact error identity on purpose.
package errflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mgdiffnet/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "errflow",
	Doc:  "require errors.Is/errors.As instead of ==, switch or message text on possibly-wrapped errors",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkComparison(pass, n)
			case *ast.SwitchStmt:
				checkSwitch(pass, n)
			case *ast.CallExpr:
				checkStringMatch(pass, n)
			}
			return true
		})
	}
	return nil
}

var errType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errType)
}

// isSentinel reports whether e names a package-level error variable — a
// sentinel in the errors.Is sense.
func isSentinel(pass *analysis.Pass, e ast.Expr) bool {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false
	}
	v, ok := pass.Info.Uses[id].(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() && isErrorType(v.Type())
}

// checkComparison flags `x == sentinel` / `x != sentinel` and ==/!= on
// err.Error() text. Comparing two sentinels is exact and allowed.
func checkComparison(pass *analysis.Pass, cmp *ast.BinaryExpr) {
	if cmp.Op != token.EQL && cmp.Op != token.NEQ {
		return
	}
	if isErrorCall(pass, cmp.X) || isErrorCall(pass, cmp.Y) {
		pass.Reportf(cmp.Pos(), "comparing err.Error() message text; use errors.Is/errors.As on the error value")
		return
	}
	sentinel, val := cmp.Y, cmp.X
	if !isSentinel(pass, sentinel) {
		sentinel, val = cmp.X, cmp.Y
		if !isSentinel(pass, sentinel) {
			return
		}
	}
	if !isErrorType(pass.TypeOf(val)) || isSentinel(pass, val) {
		return
	}
	pass.Reportf(cmp.Pos(), "%s compared with %s; the value may be wrapped — use errors.Is", types.ExprString(sentinel), cmp.Op)
}

// checkSwitch flags `switch err { case io.EOF: }`, which compares with
// == under the hood.
func checkSwitch(pass *analysis.Pass, sw *ast.SwitchStmt) {
	if sw.Tag == nil || !isErrorType(pass.TypeOf(sw.Tag)) {
		return
	}
	for _, stmt := range sw.Body.List {
		for _, v := range stmt.(*ast.CaseClause).List {
			if isSentinel(pass, v) {
				pass.Reportf(sw.Pos(), "switch on an error value compares sentinels with ==; use if/else with errors.Is")
				return
			}
		}
	}
}

// checkStringMatch flags err.Error() fed to a strings matcher.
func checkStringMatch(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "strings" || !stringMatchers[fn.Name()] {
		return
	}
	for _, arg := range call.Args {
		if isErrorCall(pass, arg) {
			pass.Reportf(call.Pos(), "strings.%s on err.Error() matches on message text; use errors.Is/errors.As on the error value", fn.Name())
			return
		}
	}
}

var stringMatchers = map[string]bool{
	"Contains": true, "HasPrefix": true, "HasSuffix": true,
	"EqualFold": true, "Index": true,
}

// isErrorCall reports whether e is a call of the error interface's
// Error method.
func isErrorCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return false
	}
	return isErrorType(pass.TypeOf(sel.X))
}
