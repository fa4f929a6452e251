package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"mgdiffnet/internal/tensor"
	"mgdiffnet/internal/unet"
)

// saveTestModel writes a tiny untrained (but loadable) model to dir.
func saveTestModel(t *testing.T, dir string) string {
	t.Helper()
	cfg := unet.DefaultConfig(2)
	cfg.Depth = 2
	cfg.BaseFilters = 2
	net := unet.New(cfg)
	path := dir + "/model.bin"
	if err := net.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestWriteCSV(t *testing.T) {
	path := t.TempDir() + "/field.csv"
	f := tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	if err := writeCSV(path, f); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 || lines[0] != "1,2" || lines[1] != "3,4" {
		t.Fatalf("csv content %q", string(data))
	}
}

// The csv writer buffers whole fields; write errors only surface when the
// buffer is flushed, so writeCSV must report them instead of silently
// truncating the solution. /dev/full fails every flushed write with ENOSPC.
func TestWriteCSVReportsFlushError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	f := tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	if err := writeCSV("/dev/full", f); err == nil {
		t.Fatal("expected an error writing to /dev/full")
	}
}

// TestRunRejectsMisalignedRes pins the satellite fix: a resolution that is
// not a positive multiple of the model's minimum input size must be a
// one-line exit-2 flag error naming the granularity, not a panic from the
// middle of the forward pass.
func TestRunRejectsMisalignedRes(t *testing.T) {
	model := saveTestModel(t, t.TempDir())
	for _, res := range []int{13, 2, -4, 0, 6} {
		var out, errb bytes.Buffer
		code := run([]string{"-model", model, "-res", strconv.Itoa(res)}, &out, &errb)
		if code != 2 {
			t.Fatalf("res %d: exit code %d, want 2 (stderr %q)", res, code, errb.String())
		}
		if !strings.Contains(errb.String(), "multiple of 4") {
			t.Fatalf("res %d: stderr %q does not name the allowed granularity", res, errb.String())
		}
	}
	// A valid resolution runs to completion.
	var out, errb bytes.Buffer
	if code := run([]string{"-model", model, "-res", "8"}, &out, &errb); code != 0 {
		t.Fatalf("res 8: exit code %d (stderr %q)", code, errb.String())
	}
	if !strings.Contains(out.String(), "2D field at res 8") {
		t.Fatalf("missing summary line: %q", out.String())
	}
}

// A resolution past 512³ voxels (res² in 2D) is a flag error, refused
// before anything of that size is allocated.
func TestRunRejectsOversizedRes(t *testing.T) {
	model := saveTestModel(t, t.TempDir())
	var out, errb bytes.Buffer
	if code := run([]string{"-model", model, "-res", "16384"}, &out, &errb); code != 2 {
		t.Fatalf("res 16384: exit code %d, want 2 (stderr %q)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "512³") {
		t.Fatalf("stderr %q does not name the bound", errb.String())
	}
}

func TestRunFlagErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{}, &out, &errb); code != 2 {
		t.Fatalf("missing -model: code %d, want 2", code)
	}
	model := saveTestModel(t, t.TempDir())
	if code := run([]string{"-model", model, "-omega", "1,2,3"}, &out, &errb); code != 2 {
		t.Fatalf("bad -omega: code %d, want 2", code)
	}
	if code := run([]string{"-model", model, "-omega-file", "f.txt", "-csv", "x.csv"}, &out, &errb); code != 2 {
		t.Fatalf("-omega-file with -csv: code %d, want 2", code)
	}
	if code := run([]string{"-model", "/nonexistent.bin"}, &out, &errb); code != 1 {
		t.Fatalf("unreadable model: code %d, want 1", code)
	}
}

// TestRunOmegaFileBatch drives the batched serving path end to end.
func TestRunOmegaFileBatch(t *testing.T) {
	dir := t.TempDir()
	model := saveTestModel(t, dir)
	omegas := dir + "/omegas.txt"
	content := "# held-out designs\n0.3, 1.5, 0.1, -1.2\n\n1.0, -0.5, 0.2, 0.8\n0.3, 1.5, 0.1, -1.2\n"
	if err := os.WriteFile(omegas, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-model", model, "-omega-file", omegas, "-res", "8"}, &out, &errb); code != 0 {
		t.Fatalf("exit code %d (stderr %q)", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "3 2D queries at res 8") {
		t.Fatalf("missing batch summary: %q", s)
	}
	for _, want := range []string{"omega 0", "omega 1", "omega 2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in %q", want, s)
		}
	}
	// The duplicated third ω must produce the same summary line as the first.
	lines := strings.Split(strings.TrimSpace(s), "\n")
	first, third := "", ""
	for _, l := range lines {
		if strings.HasPrefix(l, "omega 0 ") {
			first = strings.TrimPrefix(l, "omega 0 ")
		}
		if strings.HasPrefix(l, "omega 2 ") {
			third = strings.TrimPrefix(l, "omega 2 ")
		}
	}
	if first == "" || first != third {
		t.Fatalf("duplicate ω answered differently:\n  %q\n  %q", first, third)
	}

	// A file of more distinct ω than the engine's admission bound
	// (8·MaxBatch·Replicas) is the CLI's own work, not overload: every
	// line is answered.
	var many strings.Builder
	for i := 0; i < 600; i++ {
		fmt.Fprintf(&many, "%g, 0.5, -0.25, 1\n", -3+0.01*float64(i))
	}
	if err := os.WriteFile(omegas, []byte(many.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-model", model, "-omega-file", omegas, "-res", "8"}, &out, &errb); code != 0 {
		t.Fatalf("600-line file: exit code %d (stderr %q)", code, errb.String())
	}
	if got := strings.Count(out.String(), "\nomega "); got != 600 {
		t.Fatalf("600-line file: %d result lines, want 600", got)
	}

	if code := run([]string{"-model", model, "-omega-file", dir + "/missing.txt", "-res", "8"}, &out, &errb); code != 2 {
		t.Fatalf("missing omega file: code %d, want 2", code)
	}
	bad := dir + "/bad.txt"
	if err := os.WriteFile(bad, []byte("1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-model", model, "-omega-file", bad, "-res", "8"}, &out, &errb); code != 2 {
		t.Fatalf("malformed omega file: code %d, want 2", code)
	}
}

// TestRunCompareConvergence pins the FEM-convergence satellite: -compare
// now reports the CG iteration count alongside the error metrics (and
// run exits non-zero when the reference fails to converge).
func TestRunCompareConvergence(t *testing.T) {
	model := saveTestModel(t, t.TempDir())
	var out, errb bytes.Buffer
	if code := run([]string{"-model", model, "-res", "16", "-compare"}, &out, &errb); code != 0 {
		t.Fatalf("compare at res 16: code %d (stderr %q)", code, errb.String())
	}
	if !strings.Contains(out.String(), "CG") || !strings.Contains(out.String(), "iters") {
		t.Fatalf("comparison line does not report CG iterations: %q", out.String())
	}
}

func TestReadOmegaFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/w.txt"
	if err := os.WriteFile(path, []byte("# c\n\n0.1,0.2,0.3,0.4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ws, err := readOmegaFile(path)
	if err != nil || len(ws) != 1 || ws[0][3] != 0.4 {
		t.Fatalf("got %v, %v", ws, err)
	}
	empty := dir + "/empty.txt"
	if err := os.WriteFile(empty, []byte("# only comments\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readOmegaFile(empty); err == nil {
		t.Fatal("expected error for empty omega file")
	}
}

func TestWriteCSVCreateError(t *testing.T) {
	f := tensor.FromSlice([]float64{1}, 1, 1)
	if err := writeCSV(t.TempDir()+"/missing/field.csv", f); err == nil {
		t.Fatal("expected an error for an uncreatable path")
	}
}

// TestRunRejectsNonFiniteOmega pins that a NaN or Inf ω component, from
// -omega or from a line of -omega-file, is an exit-2 error naming the
// component instead of a NaN solution reported as success.
func TestRunRejectsNonFiniteOmega(t *testing.T) {
	dir := t.TempDir()
	model := saveTestModel(t, dir)
	for _, tc := range []struct{ omega, component string }{
		{"NaN,1,0,0", "component 0"},
		{"0.3,Inf,0,0", "component 1"},
		{"0.3,1.5,0.1,-Inf", "component 3"},
	} {
		var out, errb bytes.Buffer
		if code := run([]string{"-model", model, "-omega", tc.omega, "-res", "8"}, &out, &errb); code != 2 {
			t.Fatalf("-omega %q: exit %d, want 2 (stdout %q)", tc.omega, code, out.String())
		}
		if !strings.Contains(errb.String(), tc.component) || !strings.Contains(errb.String(), "finite") {
			t.Fatalf("-omega %q: stderr %q does not name %s as non-finite", tc.omega, errb.String(), tc.component)
		}

		file := dir + "/omegas.txt"
		if err := os.WriteFile(file, []byte("0.3, 1.5, 0.1, -1.2\n"+tc.omega+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		out.Reset()
		errb.Reset()
		if code := run([]string{"-model", model, "-omega-file", file, "-res", "8"}, &out, &errb); code != 2 {
			t.Fatalf("-omega-file line %q: exit %d, want 2 (stdout %q)", tc.omega, code, out.String())
		}
		if !strings.Contains(errb.String(), "omegas.txt:2") || !strings.Contains(errb.String(), tc.component) {
			t.Fatalf("-omega-file line %q: stderr %q does not name line 2 and %s", tc.omega, errb.String(), tc.component)
		}
	}
}
