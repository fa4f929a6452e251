// mglint runs the repo's project-specific static analyzers — the
// determinism, hot-path-allocation, write-path and error-handling
// invariants that after-the-fact tests used to guard one instance at a
// time. The suite is internal/analysis/all; stock `go vet` runs next to
// it in `make lint`.
//
//	mglint [packages]
//
// loads the packages (default ./...) through `go list -export`, runs them
// in dependency order so cross-package facts flow, and prints every
// unsuppressed diagnostic to stderr as file:line:col: message (analyzer).
//
// Suppressions: //mglint:ignore <analyzer> <reason> (line) and
// //mglint:ignore-file <analyzer> <reason> (file). The reason is
// mandatory; a bare ignore is itself a diagnostic.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"mgdiffnet/internal/analysis"
	"mgdiffnet/internal/analysis/all"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

const usage = `usage: mglint [packages]

mglint takes no flags. Exit codes:
    0  no unsuppressed diagnostics (waived-only counts as clean)
    1  unsuppressed diagnostics reported
    2  usage or load error
`

func run(args []string, stderr io.Writer) int {
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			fmt.Fprint(stderr, usage)
			if a == "-h" || a == "-help" || a == "--help" {
				return 0 // the user asked for the usage text; that's not an error
			}
			return 2
		}
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", args...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	diags, err := analysis.Run(pkgs, all.Analyzers())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	// Packages share one FileSet per Load, so any package resolves positions.
	fset := pkgs[0].Fset
	code := 0
	for _, d := range diags {
		if !d.Suppressed {
			fmt.Fprintf(stderr, "%s: %s (%s)\n", fset.Position(d.Pos), d.Message, d.Analyzer)
			code = 1
		}
	}
	return code
}
