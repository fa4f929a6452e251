// Package analysis is a self-contained static-analysis framework for the
// repo's own invariants: a stdlib-only reimplementation of the core of
// golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic, object
// facts), a package loader built on `go list -export` build-cache export
// data, and a driver that understands the module's //mglint:ignore
// suppression directives.
//
// The toolchain image has no network access, so the x/tools module cannot
// be fetched; everything here is implemented on go/ast, go/types,
// go/importer and the go command. The API deliberately mirrors x/tools so
// analyzers port in either direction mechanically.
//
// Analyzers live in internal/analysis/passes/<name>; the aggregate
// registry is internal/analysis/all; the CLI is cmd/mglint. Cross-package
// facts (facts.go) flow through one in-memory store threaded through the
// packages in dependency order.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one named invariant check. Run inspects a single
// type-checked package through the Pass and reports findings via
// Pass.Reportf; it must not retain the Pass.
type Analyzer struct {
	Name string // short lower-case identifier, used in directives and output
	Doc  string // one-paragraph description of the invariant it guards
	Run  func(*Pass) error
}

// A Diagnostic is one finding, positioned in the loaded FileSet.
// Suppressed findings (waived by an //mglint:ignore directive) are
// retained so callers can count the waivers; output and exit codes
// consider only unsuppressed ones.
type Diagnostic struct {
	Pos        token.Pos
	Message    string
	Analyzer   string // name of the reporting analyzer (filled by the driver)
	Suppressed bool   // waived by a directive
}

// A Pass hands one type-checked package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
	facts  factStore
	waived func(token.Pos) bool
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if t := p.Info.TypeOf(e); t != nil {
		return t
	}
	return nil
}

// newInfo allocates a types.Info with every map analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Run applies every analyzer to every package in dependency order,
// threading one fact store through the whole set so interprocedural
// analyzers see their dependencies' facts, and returns the surviving
// diagnostics sorted by position. Suppressed findings are retained with
// Suppressed set; malformed //mglint:ignore directives surface as
// diagnostics themselves so a suppression can never silently rot without
// a reason. Packages marked FactsOnly contribute facts but no
// diagnostics (the driver uses them for the plain variant of a
// test-augmented package, which would otherwise double-report).
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	store := make(factStore)
	var out []Diagnostic
	for _, pkg := range dependencyOrder(pkgs) {
		diags, err := runPackage(pkg, analyzers, store)
		if err != nil {
			return nil, err
		}
		if !pkg.FactsOnly {
			out = append(out, diags...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// runPackage runs the analyzers over one package against the shared fact
// store and returns its diagnostics (suppression already marked).
func runPackage(pkg *Package, analyzers []*Analyzer, store factStore) ([]Diagnostic, error) {
	dirs := collectDirectives(pkg.Fset, pkg.Files)
	var out []Diagnostic
	out = append(out, dirs.malformed...)
	for _, a := range analyzers {
		name := a.Name
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			facts:    store,
			waived: func(pos token.Pos) bool {
				return dirs.suppressedAt(pkg.Fset, pos, name)
			},
		}
		pass.report = func(d Diagnostic) {
			d.Suppressed = dirs.suppressed(pkg.Fset, d)
			out = append(out, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
		}
	}
	return out, nil
}

// dependencyOrder topologically sorts the units so every package runs
// after the packages it imports — the order facts must flow. `go list
// -deps` already emits dependency order, so this is normally a stable
// no-op, but golden multi-package layouts and hand-assembled package
// lists rely on it. The plain variant of a test-augmented package is the
// fact provider for importers (the augmented variant may itself import
// packages that import the plain one, which would otherwise cycle), and
// each augmented variant runs after its plain counterpart. Ties keep
// input order; an unexpected cycle falls back to input order.
func dependencyOrder(pkgs []*Package) []*Package {
	provider := make(map[string]*Package) // plain import path -> fact-providing unit
	for _, p := range pkgs {
		pp := plainPath(p.Path)
		if cur, ok := provider[pp]; !ok || (cur.Path != pp && p.Path == pp) {
			provider[pp] = p
		}
	}
	index := make(map[*Package]int, len(pkgs))
	for i, p := range pkgs {
		index[p] = i
	}
	deps := make(map[*Package][]*Package) // unit -> units it must follow
	indeg := make(map[*Package]int)
	addEdge := func(from, to *Package) {
		if from == nil || from == to {
			return
		}
		deps[from] = append(deps[from], to)
		indeg[to]++
	}
	for _, p := range pkgs {
		if p.Types != nil {
			for _, imp := range p.Types.Imports() {
				addEdge(provider[imp.Path()], p)
			}
		}
		if pp := plainPath(p.Path); pp != p.Path {
			addEdge(provider[pp], p)
		}
	}
	ready := make([]*Package, 0, len(pkgs))
	for _, p := range pkgs {
		if indeg[p] == 0 {
			ready = append(ready, p)
		}
	}
	var order []*Package
	for len(ready) > 0 {
		sort.Slice(ready, func(i, j int) bool { return index[ready[i]] < index[ready[j]] })
		p := ready[0]
		ready = ready[1:]
		order = append(order, p)
		for _, d := range deps[p] {
			if indeg[d]--; indeg[d] == 0 {
				ready = append(ready, d)
			}
		}
	}
	if len(order) != len(pkgs) {
		return pkgs // cycle: should not happen, preserve input order
	}
	return order
}
