package errflow_test

import (
	"testing"

	"mgdiffnet/internal/analysis/analysistest"
	"mgdiffnet/internal/analysis/passes/errflow"
)

// TestErrflowGolden runs errflow over its golden package: sentinel
// comparisons and switches, message-text matching, and a waiver.
func TestErrflowGolden(t *testing.T) {
	analysistest.Run(t, "testdata", errflow.Analyzer, "errflow")
}
