// Package detrand forbids ambient nondeterminism — the global math/rand
// source and wall-clock reads — in the packages whose outputs are pinned
// bit-exact by the distributed-training and checkpoint test contracts.
//
// The repo's reproducibility story (same seed + same world size ⇒ same
// bits, TCP world ≡ in-process world, resume ≡ uninterrupted) only holds
// because every random draw flows from an explicitly seeded *rand.Rand
// and no numeric path consults the clock. A single rand.Float64() or
// time.Now()-derived value in core, dist, nn, tensor, unet or field
// silently voids those contracts, and nothing but this check would notice
// until a bit-exactness test flakes.
//
// The analyzer is interprocedural: every analyzed package exports
// UsesWallClock / UsesGlobalRand facts for its functions that reach
// time.Now or the global rand source — directly or through calls — and
// critical packages consult those facts at call sites. A helper two
// packages down the import graph that reads the clock is reported at the
// boundary call in the critical package, with the call chain in the
// message. Waived occurrences (//mglint:ignore detrand <reason>) export
// no facts: a documented I/O deadline in the transport must not taint
// every caller of the transport.
//
// Flagged in determinism-critical packages (non-test files only):
//   - any package-level function of math/rand or math/rand/v2 that draws
//     from the shared global source (rand.Intn, rand.Float64, rand.Seed,
//     rand.Shuffle, ...). Constructors (New, NewSource, NewPCG,
//     NewChaCha8, NewZipf) are allowed: a *rand.Rand built from an
//     explicit seed is the sanctioned way to be random.
//   - time.Now. Wall-clock telemetry and I/O deadlines are legitimate but
//     must be waived in place (//mglint:ignore detrand <reason>), keeping
//     every clock read in a numeric package visibly accounted for.
//   - calls into non-critical packages whose target carries a
//     UsesWallClock or UsesGlobalRand fact. (Calls whose target lives in
//     a critical package are not double-reported: the sink itself is
//     flagged in its own package.)
package detrand

import (
	"go/ast"
	"go/types"
	"path"
	"strings"

	"mgdiffnet/internal/analysis"
)

// UsesWallClock marks a function that reaches time.Now on some path. Via
// is the call chain from the function to the sink, e.g.
// "stamp -> time.Now".
type UsesWallClock struct{ Via string }

func (*UsesWallClock) AFact() {}

// UsesGlobalRand marks a function that reaches the process-global
// math/rand source on some path.
type UsesGlobalRand struct{ Via string }

func (*UsesGlobalRand) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc:  "forbid global math/rand and time.Now (direct or via facts) in determinism-critical packages",
	Run:  run,
}

// criticalPkgs are the final import-path segments of packages under the
// bit-exactness contract. Matching on the last segment keeps the analyzer
// testable from golden packages outside the module.
var criticalPkgs = map[string]bool{
	"core":   true,
	"dist":   true,
	"nn":     true,
	"tensor": true,
	"unet":   true,
	"field":  true,
}

// seededConstructors build isolated generators from explicit seeds and are
// therefore deterministic under the caller's control.
var seededConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true,
	"NewChaCha8": true,
	"NewZipf":    true,
}

func run(pass *analysis.Pass) error {
	clock, grand := computeFacts(pass)
	for fn, via := range clock {
		pass.ExportObjectFact(fn, &UsesWallClock{Via: via})
	}
	for fn, via := range grand {
		pass.ExportObjectFact(fn, &UsesGlobalRand{Via: via})
	}

	if !criticalPkgs[path.Base(pass.Pkg.Path())] {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue // tests may time out and jitter freely
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				reportDirect(pass, n)
			case *ast.CallExpr:
				reportIndirect(pass, n)
			}
			return true
		})
	}
	return nil
}

func isTestFile(pass *analysis.Pass, f *ast.File) bool {
	return strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
}

// sinkOf classifies a package-level function object as a nondeterminism
// sink, returning a short name like "time.Now" or "rand.Intn".
func sinkOf(fn *types.Func) (sink string, isSink, isClock bool) {
	if fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return "", false, false // methods on a seeded *rand.Rand are fine
	}
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		if !seededConstructors[fn.Name()] {
			return "rand." + fn.Name(), true, false
		}
	case "time":
		if fn.Name() == "Now" {
			return "time.Now", true, true
		}
	}
	return "", false, false
}

func reportDirect(pass *analysis.Pass, sel *ast.SelectorExpr) {
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sink, isSink, isClock := sinkOf(fn)
	if !isSink {
		return
	}
	if isClock {
		pass.Reportf(sel.Pos(), "time.Now in a determinism-critical package; derive values from the schedule or seed, or waive with //mglint:ignore detrand <reason> if this is telemetry or an I/O deadline")
	} else {
		pass.Reportf(sel.Pos(), "%s draws from the process-global random source; use an explicitly seeded *rand.Rand so runs stay bit-reproducible", sink)
	}
}

// reportIndirect flags calls whose target — resolved across package
// boundaries through facts — reaches a sink. Targets inside critical
// packages are skipped: the sink is reported directly in its own package,
// and repeating it at every caller would double-count one hazard.
func reportIndirect(pass *analysis.Pass, call *ast.CallExpr) {
	fn := callee(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if fn.Pkg() == pass.Pkg || criticalPkgs[path.Base(fn.Pkg().Path())] {
		return
	}
	var wc UsesWallClock
	if pass.ImportObjectFact(fn, &wc) {
		pass.Reportf(call.Pos(), "call to %s reaches time.Now (%s -> %s); pass the value in from the caller's schedule, or waive with //mglint:ignore detrand <reason>", fn.Name(), fn.Name(), wc.Via)
	}
	var gr UsesGlobalRand
	if pass.ImportObjectFact(fn, &gr) {
		pass.Reportf(call.Pos(), "call to %s reaches the process-global random source (%s -> %s); plumb an explicitly seeded *rand.Rand instead", fn.Name(), fn.Name(), gr.Via)
	}
}

// callee resolves the static target of a call: a package-level function
// or a method with a known declaration.
func callee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pass.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// computeFacts derives, to a fixpoint over the package's call graph, the
// set of package-level functions and methods that reach each sink.
// Waived occurrences are excluded: a documented exception must not taint
// callers. Test files are excluded: facts describe shipped code.
func computeFacts(pass *analysis.Pass) (clock, grand map[*types.Func]string) {
	clock = make(map[*types.Func]string)
	grand = make(map[*types.Func]string)
	type decl struct {
		fn   *types.Func
		body *ast.BlockStmt
	}
	var decls []decl
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls = append(decls, decl{fn, fd.Body})
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if _, hasC := clock[d.fn]; hasC {
				if _, hasG := grand[d.fn]; hasG {
					continue
				}
			}
			ast.Inspect(d.body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					fn, ok := pass.Info.Uses[n.Sel].(*types.Func)
					if !ok || pass.Waived(n.Pos()) {
						return true
					}
					if sink, isSink, isClock := sinkOf(fn); isSink {
						changed = setVia(clock, grand, isClock, d.fn, sink) || changed
					}
				case *ast.CallExpr:
					fn := callee(pass, n)
					if fn == nil || pass.Waived(n.Pos()) {
						return true
					}
					// Same-package propagation through the local maps;
					// cross-package through imported facts.
					if via, ok := clock[fn]; ok && fn != d.fn {
						changed = setVia(clock, grand, true, d.fn, fn.Name()+" -> "+via) || changed
					} else if fn.Pkg() != pass.Pkg {
						var wc UsesWallClock
						if pass.ImportObjectFact(fn, &wc) {
							changed = setVia(clock, grand, true, d.fn, fn.Name()+" -> "+wc.Via) || changed
						}
					}
					if via, ok := grand[fn]; ok && fn != d.fn {
						changed = setVia(clock, grand, false, d.fn, fn.Name()+" -> "+via) || changed
					} else if fn.Pkg() != pass.Pkg {
						var gr UsesGlobalRand
						if pass.ImportObjectFact(fn, &gr) {
							changed = setVia(clock, grand, false, d.fn, fn.Name()+" -> "+gr.Via) || changed
						}
					}
				}
				return true
			})
		}
	}
	return clock, grand
}

// setVia records the first-found chain for a sink kind and reports
// whether anything changed.
func setVia(clock, grand map[*types.Func]string, isClock bool, fn *types.Func, via string) bool {
	m := grand
	if isClock {
		m = clock
	}
	if _, ok := m[fn]; ok {
		return false
	}
	m[fn] = via
	return true
}
