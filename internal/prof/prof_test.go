package prof

import (
	"os"
	"path/filepath"
	"testing"

	"mgdiffnet/internal/prof/proftest"
)

func TestStartWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	s := 0.0
	for i := range 1 << 20 {
		s += float64(i)
	}
	_ = s
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	proftest.Parse(t, cpu, mem)
}

func TestStartWithoutPathsWritesNothing(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartReportsUnwritablePath(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "cpu.out")
	if _, err := Start(bad, ""); err == nil {
		t.Fatal("Start succeeded on a path in a missing directory")
	}
	stop, err := Start("", bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Fatal("stop succeeded writing a heap profile into a missing directory")
	}
	if _, err := os.Stat(bad); err == nil {
		t.Fatal("a profile appeared in a missing directory")
	}
}
