// Package hotalloc enforces alloc-free steady state in functions
// annotated //mglint:hotpath — the paths whose allocation budgets the
// AllocsPerRun guards pin (flat-Adam sweep, rank-order collectives,
// ForwardInto, serve dispatch). The benchmark guard catches a regression
// after it lands; this analyzer catches it in review, at the line that
// allocates.
//
// Inside an annotated function it flags:
//
//   - make and new: fresh heap state per call. The grow-only scratch
//     idiom is allowed — a make guarded by an enclosing `if` testing
//     cap or len amortizes to zero and is how the communicator and
//     arena manage scratch;
//   - append: growth allocates and copies. Hot paths write into
//     pre-sized buffers instead;
//   - go statements: a goroutine plus closure environment per call;
//   - closures that escape: a func literal passed as an argument,
//     returned, stored, or deferred carries a heap-allocated
//     environment per call. A literal bound to a local variable that is
//     only ever called directly stays on the stack and is allowed;
//   - &CompositeLit: a fresh heap object per call;
//   - interface boxing: passing a non-pointer-shaped concrete value
//     (ints, floats, strings, slices, structs) into an interface
//     parameter allocates. Pointer-shaped values (pointers, maps,
//     channels, funcs) fit the interface word and do not.
//
// Early-exit blocks that end in return or panic — argument validation,
// error propagation — are cold by construction and exempt, so hot
// functions keep honest fmt.Errorf error paths without waivers.
//
// The analyzer is interprocedural: every analyzed package runs the same
// allocation checks in a silent collect pass over all of its functions
// and exports an AllocatesOnSteadyPath fact for each one that would have
// been flagged. A hotpath function that calls a fact-carrying helper —
// in the same package or across a package boundary — is then reported at
// the call site: the helper allocates on the hot function's behalf, and
// the AllocsPerRun guard charges the hot function either way. Functions
// themselves annotated //mglint:hotpath export no fact: they are held
// alloc-free directly, and calling them from another hot function is the
// intended composition. Waived allocations (//mglint:ignore hotalloc)
// export no fact either.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mgdiffnet/internal/analysis"
)

// AllocatesOnSteadyPath marks a function that allocates outside its cold
// (early-exit) blocks. At names the first allocation found, e.g. "make"
// or "append".
type AllocatesOnSteadyPath struct{ At string }

func (*AllocatesOnSteadyPath) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "flag allocation sources in //mglint:hotpath functions, including allocating callees via facts",
	Run:  run,
}

const marker = "//mglint:hotpath"

func run(pass *analysis.Pass) error {
	// Collect pass: every non-test, non-hotpath function that allocates on
	// its steady path exports a fact for callers in hot code to see.
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || isHotpath(fd) {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if at := firstSteadyAlloc(pass, fd); at != "" {
				pass.ExportObjectFact(fn, &AllocatesOnSteadyPath{At: at})
			}
		}
	}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpath(fd) {
				continue
			}
			c := newChecker(pass, fd)
			c.walk(fd.Body)
			c.checkAllocatingCallees(fd.Body)
		}
	}
	return nil
}

// firstSteadyAlloc runs the checker silently over one function and
// returns the kind of the first non-waived steady-path allocation, or ""
// when the function is clean.
func firstSteadyAlloc(pass *analysis.Pass, fd *ast.FuncDecl) string {
	c := newChecker(pass, fd)
	c.collect = func(pos token.Pos, kind string) string {
		if c.found == "" && !pass.Waived(pos) {
			c.found = kind
		}
		return c.found
	}
	c.walk(fd.Body)
	return c.found
}

// checkAllocatingCallees reports steady-path calls from a hot function to
// targets carrying an AllocatesOnSteadyPath fact.
func (c *checker) checkAllocatingCallees(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if c.cold[n] {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var fn *types.Func
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			fn, _ = c.pass.Info.Uses[fun].(*types.Func)
		case *ast.SelectorExpr:
			fn, _ = c.pass.Info.Uses[fun.Sel].(*types.Func)
		}
		if fn == nil {
			return true
		}
		var fact AllocatesOnSteadyPath
		if c.pass.ImportObjectFact(fn, &fact) {
			c.pass.Reportf(call.Pos(), "call to %s allocates on the hot path (%s does %s on its steady path); inline an alloc-free variant or annotate %s //mglint:hotpath and fix it", fn.Name(), fn.Name(), fact.At, fn.Name())
		}
		return true
	})
}

func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimRight(c.Text, " \t") == marker {
			return true
		}
	}
	return false
}

type checker struct {
	pass *analysis.Pass
	fd   *ast.FuncDecl
	cold map[ast.Node]bool     // early-exit blocks, exempt from checks
	safe map[*ast.FuncLit]bool // literals bound to locals that never escape

	// collect, when set, switches the checker to silent fact-collection:
	// instead of reporting, each finding's kind is recorded via this hook.
	collect func(pos token.Pos, kind string) string
	found   string
}

// report emits a diagnostic, or in collect mode records the finding kind.
func (c *checker) report(pos token.Pos, kind, format string, args ...interface{}) {
	if c.collect != nil {
		c.collect(pos, kind)
		return
	}
	c.pass.Reportf(pos, format, args...)
}

func newChecker(pass *analysis.Pass, fd *ast.FuncDecl) *checker {
	c := &checker{pass: pass, fd: fd, cold: make(map[ast.Node]bool), safe: make(map[*ast.FuncLit]bool)}
	c.markCold()
	c.markSafeLits()
	return c
}

// markCold records if/else and case bodies that terminate in return or
// panic: validation and error-propagation branches, never steady state.
func (c *checker) markCold() {
	ast.Inspect(c.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if blockExits(n.Body) {
				c.cold[n.Body] = true
			}
			if els, ok := n.Else.(*ast.BlockStmt); ok && blockExits(els) {
				c.cold[els] = true
			}
		case *ast.CaseClause:
			if len(n.Body) > 0 && stmtExits(n.Body[len(n.Body)-1]) {
				for _, s := range n.Body {
					c.cold[s] = true
				}
			}
		}
		return true
	})
}

func blockExits(b *ast.BlockStmt) bool {
	return len(b.List) > 0 && stmtExits(b.List[len(b.List)-1])
}

func stmtExits(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// markSafeLits records func literals of the non-escaping shape
// `f := func(...){...}` where every use of f is a direct call.
func (c *checker) markSafeLits() {
	callees := make(map[*ast.Ident]bool)
	ast.Inspect(c.fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				callees[id] = true
			}
		}
		return true
	})
	ast.Inspect(c.fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE {
			return true
		}
		for i, rhs := range as.Rhs {
			lit, ok := rhs.(*ast.FuncLit)
			if !ok || i >= len(as.Lhs) {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := c.pass.Info.Defs[id]
			if obj == nil {
				continue
			}
			escapes := false
			ast.Inspect(c.fd.Body, func(n ast.Node) bool {
				use, ok := n.(*ast.Ident)
				if ok && c.pass.Info.Uses[use] == obj && !callees[use] {
					escapes = true
				}
				return true
			})
			if !escapes {
				c.safe[lit] = true
			}
		}
		return true
	})
}

func (c *checker) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if c.cold[n] {
			return false // early-exit branch: exempt
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			c.checkCall(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					c.report(n.Pos(), "&composite literal", "composite literal address in hot path allocates; hoist it to a reused field or variable")
				}
			}
		case *ast.GoStmt:
			c.report(n.Pos(), "go statement", "go statement in hot path allocates a goroutine and closure per call")
			return false // don't also flag its func literal
		case *ast.FuncLit:
			if !c.safe[n] {
				c.report(n.Pos(), "escaping func literal", "func literal escapes in hot path: its closure environment is heap-allocated per call")
			}
		}
		return true
	})
}

func (c *checker) checkCall(call *ast.CallExpr) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := c.pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				if !c.capGuarded(call) {
					c.report(call.Pos(), "make", "make in hot path allocates per call; use a grow-only scratch buffer (make guarded by `if cap(buf) < n`)")
				}
			case "new":
				c.report(call.Pos(), "new", "new in hot path allocates per call; reuse a field or stack value")
			case "append":
				if !c.truncatedReuse(call) {
					c.report(call.Pos(), "append", "append in hot path may grow and copy; write into a pre-sized buffer")
				}
			}
			return
		}
	}
	c.checkBoxing(call)
}

// truncatedReuse reports whether an append's destination is reset with
// `x = x[:0]` in the same function — the truncate-then-append scratch
// idiom, which reuses the backing array and amortizes to zero once the
// capacity high-water mark is reached.
func (c *checker) truncatedReuse(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	dst := types.ExprString(call.Args[0])
	reused := false
	ast.Inspect(c.fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		sl, ok := as.Rhs[0].(*ast.SliceExpr)
		if !ok || sl.Low != nil || sl.Slice3 {
			return true
		}
		high, ok := sl.High.(*ast.BasicLit)
		if !ok || high.Value != "0" {
			return true
		}
		if types.ExprString(as.Lhs[0]) == dst && types.ExprString(sl.X) == dst {
			reused = true
		}
		return true
	})
	return reused
}

// capGuarded reports whether the make call sits inside an if whose
// condition tests cap or len — the sanctioned grow-only scratch idiom.
func (c *checker) capGuarded(call *ast.CallExpr) bool {
	guarded := false
	ast.Inspect(c.fd.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || call.Pos() < ifs.Body.Pos() || call.End() > ifs.Body.End() {
			return true
		}
		if condUsesCapOrLen(ifs.Cond) {
			guarded = true
		}
		return true
	})
	return guarded
}

func condUsesCapOrLen(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && (id.Name == "cap" || id.Name == "len") {
				found = true
			}
		}
		return true
	})
	return found
}

// checkBoxing flags non-pointer-shaped concrete values passed into
// interface parameters.
func (c *checker) checkBoxing(call *ast.CallExpr) {
	sigType := c.pass.TypeOf(call.Fun)
	if sigType == nil {
		return
	}
	sig, ok := sigType.Underlying().(*types.Signature)
	if !ok {
		return // conversion or builtin
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice: no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		} else if i < params.Len() {
			pt = params.At(i).Type()
		} else {
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := c.pass.TypeOf(arg)
		if at == nil || types.IsInterface(at) || pointerShaped(at) {
			continue
		}
		if tv, ok := c.pass.Info.Types[arg]; ok && tv.IsNil() {
			continue
		}
		c.report(arg.Pos(), "interface boxing", "value of type %s boxed into interface parameter in hot path: the conversion heap-allocates per call", at)
	}
}

// pointerShaped reports types that fit the interface data word without
// allocation.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}
