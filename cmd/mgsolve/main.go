// Command mgsolve runs the traditional FEM comparator: it solves the
// generalized Poisson problem for one parameter vector ω with either
// conjugate gradients (any grid) or geometric multigrid (2^k+1 grids) and
// reports solver statistics.
//
// Example:
//
//	mgsolve -dim 2 -res 65 -method gmg -cycle w -omega "0.3105,1.5386,0.0932,-1.2442"
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"mgdiffnet/internal/fem"
	"mgdiffnet/internal/field"
	"mgdiffnet/internal/gmg"
	"mgdiffnet/internal/sparse"
	"mgdiffnet/internal/tensor"
	"mgdiffnet/internal/vtkio"
)

func parseCycle(s string) (gmg.CycleType, error) {
	switch strings.ToLower(s) {
	case "v":
		return gmg.VCycle, nil
	case "w":
		return gmg.WCycle, nil
	case "f":
		return gmg.FCycle, nil
	case "half-v", "halfv", "hv":
		return gmg.HalfVCycle, nil
	}
	return gmg.VCycle, fmt.Errorf("unknown cycle %q", s)
}

// gmgMemLimit bounds the memory a multigrid solve may be estimated to
// need. gmgBytesPerNode is the measured peak memory per fine-grid node by
// dimension: assembly stages every element matrix in COO form before it
// compresses the CSR (3D 65³ peaked at 1308 MB, 2D 1025² at 1398 MB).
const gmgMemLimit = 4 << 30

var gmgBytesPerNode = map[int]int{2: 1300, 3: 4800}

// validate rejects flag values the solvers would panic on, loop on for
// the whole iteration budget, run out of memory on, or silently
// reinterpret.
func validate(dim, res int, method string, tol float64) error {
	if dim != 2 && dim != 3 {
		return fmt.Errorf("-dim must be 2 or 3, got %d", dim)
	}
	if res < 2 {
		return fmt.Errorf("-res must be >= 2, got %d", res)
	}
	if err := field.CheckVoxels(dim, res); err != nil {
		return fmt.Errorf("-res: %w", err)
	}
	switch method {
	case "cg":
	case "gmg":
		if n := res - 1; res < 3 || n&(n-1) != 0 {
			return fmt.Errorf("-method gmg needs a 2^k+1 grid (3, 5, 9, 17, 33, 65, …), got -res %d", res)
		}
		nodes := 1
		for range dim {
			nodes *= res
		}
		if need := nodes * gmgBytesPerNode[dim]; need > gmgMemLimit {
			return fmt.Errorf("-method gmg at %dD -res %d needs an estimated %.1f GiB to assemble, over the %d GiB limit; -method cg is matrix-free",
				dim, res, float64(need)/(1<<30), gmgMemLimit>>30)
		}
	default:
		return fmt.Errorf("unknown method %q (want cg or gmg)", method)
	}
	if !(tol > 0) || math.IsInf(tol, 1) {
		return fmt.Errorf("-tol must be finite and > 0, got %g", tol)
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mgsolve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dim      = fs.Int("dim", 2, "spatial dimensionality (2 or 3)")
		res      = fs.Int("res", 65, "nodal resolution (2^k+1 for -method gmg)")
		method   = fs.String("method", "gmg", "solver: cg or gmg")
		cycle    = fs.String("cycle", "v", "gmg cycle: v, w, f, half-v")
		tol      = fs.Float64("tol", 1e-8, "relative residual tolerance")
		omegaStr = fs.String("omega", "0.3105,1.5386,0.0932,-1.2442", "parameter vector ω")
		outVTI   = fs.String("vti", "", "write solution and diffusivity to this VTK ImageData path")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := validate(*dim, *res, *method, *tol); err != nil {
		fmt.Fprintln(stderr, "mgsolve:", err)
		return 2
	}
	w, err := field.ParseOmega(*omegaStr)
	if err != nil {
		fmt.Fprintln(stderr, "mgsolve:", err)
		return 2
	}
	var ct gmg.CycleType
	if *method == "gmg" {
		if ct, err = parseCycle(*cycle); err != nil {
			fmt.Fprintln(stderr, "mgsolve:", err)
			return 2
		}
	}
	nu := field.Raster(w, *dim, *res)

	start := time.Now()
	var u *tensor.Tensor
	if *method == "cg" {
		var st sparse.CGResult
		u, st = fem.Solve(nu, *tol, 100000)
		fmt.Fprintf(stdout, "CG: %d iterations, relative residual %.3e, converged %v\n", st.Iterations, st.RelResidual, st.Converged)
	} else {
		var st gmg.Stats
		u, st = gmg.NewSolver(nu, gmg.Options{Cycle: ct, Tol: *tol}).Solve()
		fmt.Fprintf(stdout, "GMG %s-cycle: %d cycles over %d levels, relative residual %.3e, converged %v\n",
			ct, st.Cycles, st.Levels, st.Residual, st.Converged)
	}
	elapsed := time.Since(start)
	fmt.Fprintf(stdout, "solved %dD res %d in %v; u in [%.4f, %.4f]\n",
		*dim, *res, elapsed.Round(time.Millisecond), u.Min(), u.Max())

	if *outVTI != "" {
		fields := []vtkio.Field{{Name: "u_fem", Data: u}, {Name: "nu", Data: nu}}
		if err := vtkio.WriteFile(*outVTI, fields); err != nil {
			fmt.Fprintln(stderr, "mgsolve: vti:", err)
			return 1
		}
		fmt.Fprintf(stdout, "VTK ImageData written to %s\n", *outVTI)
	}
	return 0
}
