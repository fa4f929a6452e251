// Package proftest checks, for the tests of the commands' profiling flags,
// that a profile file is one `go tool pprof` reads.
package proftest

import (
	"os/exec"
	"testing"
)

// Parse fails t unless `go tool pprof` reads every path as a profile. It
// skips in short mode and where no go command is on PATH.
func Parse(t testing.TB, paths ...string) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs go tool pprof")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	for _, p := range paths {
		if out, err := exec.Command(goBin, "tool", "pprof", "-top", p).CombinedOutput(); err != nil {
			t.Errorf("go tool pprof %s: %v\n%s", p, err, out)
		}
	}
}
