// Package closecheck flags dropped errors at the end of buffered write
// paths — the bug class behind the unchecked csv Flush/Close findings of
// PR 2 and the fsync handling of PR 6. Buffered writers defer failure:
// a full disk, closed pipe or dying NFS mount surfaces only at
// Flush/Sync/Close time, so dropping those errors silently truncates
// checkpoints, CSV exports and VTK fields.
//
// Flagged:
//
//   - an expression statement discarding the error of Close, Flush, Sync,
//     Write or WriteString on a known buffered-writer type (os.File,
//     bufio.Writer, zlib/gzip Writer, io.Writer/Closer/WriteCloser
//     interface values);
//   - `defer f.Close()` where f was opened for writing in the same
//     function (os.Create / os.OpenFile): the deferred Close is the
//     write's commit point and its error is the only notification of
//     data loss. Read-only files may defer-close freely;
//   - csv.Writer.Flush (which returns no error by design) in a function
//     that never consults the writer's Error() method.
//
// Deliberate discards stay possible and visible: assign to blank
// (`_ = w.Close()`) or waive with //mglint:ignore closecheck <reason>.
//
// The analyzer is interprocedural: a function that returns a file it
// opened for writing (os.Create / os.OpenFile, directly or through
// another fact-carrying opener) exports a ReturnsWriteHandle fact, and
// callers — in any package — treat the returned file as a write handle.
// `f, _ := artifacts.CreateCheckpoint(path); defer f.Close()` is caught
// exactly like `f, _ := os.Create(path); defer f.Close()`.
package closecheck

import (
	"go/ast"
	"go/types"
	"strings"

	"mgdiffnet/internal/analysis"
)

// ReturnsWriteHandle marks a function whose *os.File result is opened
// for writing: callers must treat it like os.Create's result.
type ReturnsWriteHandle struct{}

func (*ReturnsWriteHandle) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name: "closecheck",
	Doc:  "flag dropped errors from Close/Flush/Sync/Write on buffered writers, tracking write handles across calls via facts",
	Run:  run,
}

var checkedMethods = map[string]bool{
	"Close": true, "Flush": true, "Sync": true, "Write": true, "WriteString": true,
}

// writerTypes are "<pkg path>.<type name>" of types whose listed methods
// report deferred I/O failure.
var writerTypes = map[string]bool{
	"os.File":               true,
	"bufio.Writer":          true,
	"compress/zlib.Writer":  true,
	"compress/gzip.Writer":  true,
	"encoding/json.Encoder": true,
	"io.Writer":             true,
	"io.Closer":             true,
	"io.WriteCloser":        true,
	"io.ReadWriteCloser":    true,
}

func run(pass *analysis.Pass) error {
	openers := collectOpeners(pass)
	for fn := range openers {
		pass.ExportObjectFact(fn, &ReturnsWriteHandle{})
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, openers)
		}
	}
	return nil
}

// opensForWrite reports whether a call produces a write handle: os.Create
// or os.OpenFile directly, or any function carrying a ReturnsWriteHandle
// fact — same-package through the local set, cross-package through the
// fact store.
func opensForWrite(pass *analysis.Pass, call *ast.CallExpr, local map[*types.Func]bool) bool {
	if isWriteOpen(pass, call) {
		return true
	}
	var fn *types.Func
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ = pass.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = pass.Info.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil {
		return false
	}
	if local[fn] {
		return true
	}
	var fact ReturnsWriteHandle
	return pass.ImportObjectFact(fn, &fact)
}

// collectOpeners finds, to a fixpoint, package-level functions that
// return a write-opened *os.File: a return statement hands back either a
// fresh open call's result or a local tracked as a write handle.
func collectOpeners(pass *analysis.Pass) map[*types.Func]bool {
	type decl struct {
		fn   *types.Func
		body *ast.BlockStmt
	}
	var decls []decl
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Type.Results == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls = append(decls, decl{fn, fd.Body})
		}
	}
	openers := make(map[*types.Func]bool)
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if openers[d.fn] {
				continue
			}
			handles := writeHandles(pass, d.body, openers)
			returns := false
			ast.Inspect(d.body, func(n ast.Node) bool {
				if _, isLit := n.(*ast.FuncLit); isLit {
					return false
				}
				ret, ok := n.(*ast.ReturnStmt)
				if !ok {
					return true
				}
				for _, res := range ret.Results {
					switch r := res.(type) {
					case *ast.CallExpr:
						if opensForWrite(pass, r, openers) {
							returns = true
						}
					case *ast.Ident:
						if obj := pass.Info.Uses[r]; obj != nil && handles[obj] {
							returns = true
						}
					}
				}
				return true
			})
			if returns {
				openers[d.fn] = true
				changed = true
			}
		}
	}
	return openers
}

// writeHandles maps locals assigned from write-opening calls.
func writeHandles(pass *analysis.Pass, body *ast.BlockStmt, openers map[*types.Func]bool) map[types.Object]bool {
	handles := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !opensForWrite(pass, call, openers) {
				continue
			}
			if len(as.Lhs) > 0 {
				if id, ok := as.Lhs[0].(*ast.Ident); ok {
					if obj := pass.Info.Defs[id]; obj != nil {
						handles[obj] = true
					} else if obj := pass.Info.Uses[id]; obj != nil {
						handles[obj] = true
					}
				}
			}
		}
		return true
	})
	return handles
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, openers map[*types.Func]bool) {
	body := fd.Body
	// Receivers whose .Error() is consulted somewhere in the function:
	// the csv.Writer protocol.
	errorChecked := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Error" {
				if obj := rootObject(pass, sel.X); obj != nil {
					errorChecked[obj] = true
				}
			}
		}
		return true
	})
	// Locals holding write handles: opened here or returned by a
	// fact-carrying opener in any package.
	writeFiles := writeHandles(pass, body, openers)

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				checkDiscard(pass, call, errorChecked)
			}
		case *ast.DeferStmt:
			checkDefer(pass, n, writeFiles)
		}
		return true
	})
}

// checkDiscard handles `w.Flush()` as a bare statement.
func checkDiscard(pass *analysis.Pass, call *ast.CallExpr, errorChecked map[types.Object]bool) {
	sel, method, recvName := methodInfo(pass, call)
	if sel == nil {
		return
	}
	if recvName == "encoding/csv.Writer" && method == "Flush" {
		if obj := rootObject(pass, sel.X); obj == nil || !errorChecked[obj] {
			pass.Reportf(call.Pos(), "csv.Writer.Flush without checking Error(): a full disk or closed pipe silently truncates the output")
		}
		return
	}
	if !checkedMethods[method] || !writerTypes[recvName] {
		return
	}
	if !returnsError(pass, call) {
		return
	}
	pass.Reportf(call.Pos(), "error from %s.%s dropped: buffered-write failure surfaces here, and ignoring it loses data silently; check it or assign to _ deliberately", displayType(recvName), method)
}

// checkDefer flags `defer f.Close()` on write handles and deferred
// Flush/Sync on any listed writer.
func checkDefer(pass *analysis.Pass, def *ast.DeferStmt, writeFiles map[types.Object]bool) {
	sel, method, recvName := methodInfo(pass, def.Call)
	if sel == nil {
		return
	}
	if recvName == "encoding/csv.Writer" && method == "Flush" {
		// Deferred: by the time it runs, no Error() check can follow.
		pass.Reportf(def.Pos(), "deferred csv.Writer.Flush can never have its Error() checked; flush explicitly before returning")
		return
	}
	if !returnsError(pass, def.Call) {
		return
	}
	switch method {
	case "Flush", "Sync":
		if writerTypes[recvName] {
			pass.Reportf(def.Pos(), "deferred %s discards its error: the flush is the write's commit point; flush explicitly and check, or capture the error in a named-return defer", method)
		}
	case "Close":
		if recvName != "os.File" {
			return
		}
		if obj := rootObject(pass, sel.X); obj != nil && writeFiles[obj] {
			pass.Reportf(def.Pos(), "deferred Close on a file opened for writing discards the commit error; use a named-return defer (if cerr := f.Close(); cerr != nil && err == nil { err = cerr })")
		}
	}
}

// methodInfo resolves a call's receiver's named type as "pkgpath.Name".
func methodInfo(pass *analysis.Pass, call *ast.CallExpr) (sel *ast.SelectorExpr, method, recvName string) {
	s, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", ""
	}
	if _, isMethod := pass.Info.Selections[s]; !isMethod {
		return nil, "", "" // package-qualified call, not a method
	}
	t := pass.TypeOf(s.X)
	if t == nil {
		return nil, "", ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return nil, "", ""
	}
	return s, s.Sel.Name, obj.Pkg().Path() + "." + obj.Name()
}

// returnsError reports whether the call's (possibly multi-valued) result
// includes an error.
func returnsError(pass *analysis.Pass, call *ast.CallExpr) bool {
	t := pass.TypeOf(call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isErrorType(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

func rootObject(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.Ident:
			if obj := pass.Info.Uses[x]; obj != nil {
				return obj
			}
			return pass.Info.Defs[x]
		default:
			return nil
		}
	}
}

func displayType(recvName string) string {
	switch recvName {
	case "os.File":
		return "os.File"
	default:
		return recvName
	}
}

// isWriteOpen matches os.Create and os.OpenFile calls.
func isWriteOpen(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
		return false
	}
	return fn.Name() == "Create" || fn.Name() == "OpenFile"
}
