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
	model := saveTestModel(t, dir)
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	var out, errb bytes.Buffer
	if code := run([]string{"-model", model, "-res", "16", "-cpuprofile", cpu, "-memprofile", mem}, &out, &errb); code != 0 {
		t.Fatalf("exit %d (stderr %q)", code, errb.String())
	}
	proftest.Parse(t, cpu, mem)
}

// A heap profile that cannot be written fails an otherwise good run.
func TestRunReportsUnwritableProfile(t *testing.T) {
	dir := t.TempDir()
	model := saveTestModel(t, dir)
	var out, errb bytes.Buffer
	bad := filepath.Join(dir, "missing", "mem.out")
	if code := run([]string{"-model", model, "-res", "8", "-memprofile", bad}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errb.String())
	}
}
