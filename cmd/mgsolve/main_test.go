package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"mgdiffnet/internal/tensor"
	"mgdiffnet/internal/vtkio"
)

func TestRunRejectsBadFlags(t *testing.T) {
	cases := map[string][]string{
		"dim 4":           {"-dim", "4"},
		"dim 0":           {"-dim", "0"},
		"res 1":           {"-method", "cg", "-res", "1"},
		"negative res":    {"-method", "cg", "-res", "-4"},
		"2D res too big":  {"-method", "cg", "-res", "100000000"},
		"3D res too big":  {"-dim", "3", "-method", "cg", "-res", "513"},
		"gmg grid 64":     {"-method", "gmg", "-res", "64"},
		"gmg grid 2":      {"-method", "gmg", "-res", "2"},
		"3D gmg too big":  {"-dim", "3", "-res", "129", "-method", "gmg"},
		"2D gmg too big":  {"-dim", "2", "-res", "4097", "-method", "gmg"},
		"NaN omega":       {"-omega", "NaN,0,0,0"},
		"infinite omega":  {"-omega", "0,0,0,-Inf"},
		"short omega":     {"-omega", "1,2,3"},
		"negative tol":    {"-tol", "-1"},
		"zero tol":        {"-tol", "0"},
		"NaN tol":         {"-tol", "NaN"},
		"infinite tol":    {"-tol", "Inf"},
		"unknown method":  {"-method", "jacobi"},
		"unknown cycle":   {"-method", "gmg", "-cycle", "zigzag"},
		"unknown flag":    {"-no-such-flag"},
		"malformed omega": {"-omega", "a,b,c,d"},
	}
	for name, args := range cases {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("%s: exit code %d, want 2 (stderr: %q)", name, code, errw.String())
		}
		if strings.Contains(errw.String(), "goroutine") {
			t.Errorf("%s: stderr shows a stack trace: %q", name, errw.String())
		}
		if out.Len() != 0 {
			t.Errorf("%s: wrote to stdout: %q", name, out.String())
		}
		// The flag package answers an unknown flag with its own usage text;
		// every value mgsolve rejects itself gets one "mgsolve:" line.
		if msg := errw.String(); name != "unknown flag" &&
			(!strings.HasPrefix(msg, "mgsolve: ") || strings.Count(msg, "\n") != 1 || !strings.HasSuffix(msg, "\n")) {
			t.Errorf("%s: stderr is not one mgsolve: line: %q", name, msg)
		}
	}
}

// TestRunCG3D runs a tiny 3D CG solve, the one path the GMG tests below
// do not reach; -cycle is ignored by CG.
func TestRunCG3D(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-dim", "3", "-method", "cg", "-res", "5", "-cycle", "ignored-by-cg"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errw.String())
	}
	if !strings.Contains(out.String(), "converged true") || !strings.Contains(out.String(), "solved 3D") {
		t.Errorf("want a converged 3D solve, got %q", out.String())
	}
}

// TestRunAcceptsEveryCycle runs a tiny GMG solve with each cycle spelling
// the -cycle help names, and checks the summary reports the cycle used.
func TestRunAcceptsEveryCycle(t *testing.T) {
	for cycle, want := range map[string]string{
		"v": "GMG V-cycle", "W": "GMG W-cycle", "f": "GMG F-cycle",
		"half-v": "GMG Half-V-cycle", "halfv": "GMG Half-V-cycle", "hv": "GMG Half-V-cycle",
	} {
		var out, errw bytes.Buffer
		if code := run([]string{"-method", "gmg", "-res", "9", "-cycle", cycle}, &out, &errw); code != 0 {
			t.Fatalf("-cycle %s: exit %d, stderr %q", cycle, code, errw.String())
		}
		if !strings.Contains(out.String(), want) || !strings.Contains(out.String(), "converged true") {
			t.Errorf("-cycle %s: want %q and convergence in %q", cycle, want, out.String())
		}
	}
}

// TestRunGMGAgreesWithCG solves one problem with both methods, writes
// each answer with -vti, and checks the two fields agree node by node and
// carry the diffusivity they were solved for.
func TestRunGMGAgreesWithCG(t *testing.T) {
	solve := func(method string) (u, nu *tensor.Tensor) {
		path := filepath.Join(t.TempDir(), method+".vti")
		var out, errw bytes.Buffer
		if code := run([]string{"-method", method, "-res", "17", "-tol", "1e-10", "-vti", path}, &out, &errw); code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", method, code, errw.String())
		}
		fields, err := vtkio.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if len(fields) != 2 || fields[0].Name != "u_fem" || fields[1].Name != "nu" {
			t.Fatalf("%s: unexpected fields in %s", method, path)
		}
		return fields[0].Data, fields[1].Data
	}
	uCG, nuCG := solve("cg")
	uGMG, nuGMG := solve("gmg")
	if !uCG.ShapeIs(17, 17) || !uGMG.ShapeIs(17, 17) {
		t.Fatalf("solution shapes %v and %v, want 17×17", uCG.Shape(), uGMG.Shape())
	}
	for i := range nuCG.Data {
		if nuCG.Data[i] != nuGMG.Data[i] {
			t.Fatalf("the two runs rasterized different diffusivities at node %d", i)
		}
	}
	if d := uCG.RMSE(uGMG); d > 1e-6 {
		t.Fatalf("CG and GMG solutions differ by RMSE %g", d)
	}
}
