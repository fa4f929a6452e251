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
	"strconv"
	"strings"
	"time"

	"mgdiffnet/internal/fem"
	"mgdiffnet/internal/field"
	"mgdiffnet/internal/gmg"
	"mgdiffnet/internal/sparse"
	"mgdiffnet/internal/tensor"
	"mgdiffnet/internal/vtkio"
)

func parseOmega(s string) (field.Omega, error) {
	var w field.Omega
	parts := strings.Split(s, ",")
	if len(parts) != field.OmegaDim {
		return w, fmt.Errorf("omega needs %d comma-separated values", field.OmegaDim)
	}
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return w, err
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return w, fmt.Errorf("omega component %d is %g, want a finite value", i, v)
		}
		w[i] = v
	}
	return w, nil
}

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

// validate rejects flag values the solvers would panic on, loop on for
// the whole iteration budget, or silently reinterpret.
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
	w, err := parseOmega(*omegaStr)
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
	var nu *tensor.Tensor
	if *dim == 2 {
		nu = field.Raster2D(w, *res)
	} else {
		nu = field.Raster3D(w, *res)
	}

	start := time.Now()
	var u *tensor.Tensor
	if *method == "cg" {
		var st sparse.CGResult
		if *dim == 2 {
			u, st = fem.Solve2D(nu, *tol, 100000)
		} else {
			u, st = fem.Solve3D(nu, *tol, 100000)
		}
		fmt.Fprintf(stdout, "CG: %d iterations, residual %.3e, converged %v\n", st.Iterations, st.Residual, st.Converged)
	} else {
		opt := gmg.Options{Cycle: ct, Tol: *tol}
		var st gmg.Stats
		if *dim == 2 {
			u, st = gmg.NewSolver2D(nu, opt).Solve()
		} else {
			u, st = gmg.NewSolver3D(nu, opt).Solve()
		}
		fmt.Fprintf(stdout, "GMG %s-cycle: %d cycles over %d levels, residual %.3e, converged %v\n",
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
