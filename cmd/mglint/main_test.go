package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// runIn invokes run with the working directory set to the exitmod
// fixture, capturing stderr.
func runIn(t *testing.T, args ...string) (code int, stderr string) {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", "exitmod"))
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(abs)
	var errb bytes.Buffer
	code = run(args, &errb)
	return code, errb.String()
}

// TestExitCodes pins the exit-status contract: 0 for clean and
// suppressed-only packages, 1 for unsuppressed diagnostics, 2 for load
// or usage errors.
func TestExitCodes(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		code, stderr := runIn(t, "./clean")
		if code != 0 || stderr != "" {
			t.Fatalf("exit %d, want 0 and no output; stderr:\n%s", code, stderr)
		}
	})
	t.Run("dirty", func(t *testing.T) {
		code, stderr := runIn(t, "./dirty")
		if code != 1 {
			t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
		}
		if !strings.Contains(stderr, "closecheck") {
			t.Fatalf("stderr missing analyzer name:\n%s", stderr)
		}
		if !strings.Contains(stderr, "dirty.go:") {
			t.Fatalf("stderr missing position:\n%s", stderr)
		}
	})
	t.Run("suppressed", func(t *testing.T) {
		code, stderr := runIn(t, "./suppressed")
		if code != 0 || stderr != "" {
			t.Fatalf("exit %d, want 0 and no output; stderr:\n%s", code, stderr)
		}
	})
	t.Run("load error", func(t *testing.T) {
		code, stderr := runIn(t, "./no/such/pkg")
		if code != 2 {
			t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr)
		}
	})
	t.Run("flag rejected", func(t *testing.T) {
		code, stderr := runIn(t, "-json", "./clean")
		if code != 2 {
			t.Fatalf("exit %d, want 2", code)
		}
		if !strings.Contains(stderr, "takes no flags") {
			t.Fatalf("stderr missing usage text:\n%s", stderr)
		}
	})
}

// TestUsage pins that -h prints the exit-code matrix and exits 0 —
// asking for help is not an error.
func TestUsage(t *testing.T) {
	var errb bytes.Buffer
	if code := run([]string{"-h"}, &errb); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if !strings.Contains(errb.String(), "Exit codes") {
		t.Fatalf("usage text missing exit-code matrix:\n%s", errb.String())
	}
}
