// Package all aggregates every mglint analyzer. The driver, the repo
// meta-test and any future tooling import the suite from here so the set
// cannot drift between entry points.
package all

import (
	"mgdiffnet/internal/analysis"
	"mgdiffnet/internal/analysis/passes/closecheck"
	"mgdiffnet/internal/analysis/passes/detrand"
	"mgdiffnet/internal/analysis/passes/errflow"
	"mgdiffnet/internal/analysis/passes/hotalloc"
	"mgdiffnet/internal/analysis/passes/maporder"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		closecheck.Analyzer,
		detrand.Analyzer,
		errflow.Analyzer,
		hotalloc.Analyzer,
		maporder.Analyzer,
	}
}
