// FEMCompare: the traditional-solver side of the paper. Solve the same
// variable-coefficient Poisson problem with conjugate gradients and with
// all four geometric-multigrid cycles of Figure 3. It exits 1 if a solver
// does not converge or a multigrid answer strays from CG's.
//
// Run with: go run ./examples/femcompare
package main

import (
	"fmt"
	"os"
	"time"

	"mgdiffnet/internal/fem"
	"mgdiffnet/internal/field"
	"mgdiffnet/internal/gmg"
)

func main() {
	const res = 65 // 2^6+1 nodes: GMG-friendly
	w := field.Omega{0.3105, 1.5386, 0.0932, -1.2442}
	nu := field.Raster(w, 2, res)

	fmt.Printf("solving -div(nu grad u)=0 at %dx%d for omega %v\n\n", res, res, w)

	start := time.Now()
	uCG, cg := fem.Solve(nu, 1e-9, 50000)
	cgSec := time.Since(start).Seconds()
	fmt.Printf("%-16s %6d iterations   %8.4fs   residual %.2e\n", "CG", cg.Iterations, cgSec, cg.Residual)
	ok := cg.Converged

	for _, ct := range []gmg.CycleType{gmg.VCycle, gmg.WCycle, gmg.FCycle, gmg.HalfVCycle} {
		start = time.Now()
		u, st := gmg.NewSolver(nu, gmg.Options{Cycle: ct, Tol: 1e-9}).Solve()
		sec := time.Since(start).Seconds()
		fmt.Printf("GMG %-12s %6d cycles       %8.4fs   residual %.2e   vs CG RMSE %.2e\n",
			ct.String()+"-cycle", st.Cycles, sec, st.Residual, u.RMSE(uCG))
		ok = ok && st.Converged && u.RMSE(uCG) < 1e-6
	}
	if !ok {
		fmt.Println("FAIL: a solver did not converge or multigrid disagrees with CG")
		os.Exit(1)
	}
}
