package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"mgdiffnet/internal/prof/proftest"
)

// -cpuprofile and -memprofile write profiles of the run that go tool
// pprof reads.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	var out, errw bytes.Buffer
	if code := run(tinyArgs("-cpuprofile", cpu, "-memprofile", mem), &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errw.String())
	}
	proftest.Parse(t, cpu, mem)
}

// A profile that cannot be created fails the run before any training.
func TestRunRejectsUnwritableProfile(t *testing.T) {
	var out, errw bytes.Buffer
	bad := filepath.Join(t.TempDir(), "missing", "cpu.out")
	if code := run(tinyArgs("-cpuprofile", bad), &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errw.String())
	}
}
