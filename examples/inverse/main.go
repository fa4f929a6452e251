// Inverse: the paper's motivating use case (§1) — computational design
// optimization, where "hundreds (or thousands) of simulations are necessary
// to obtain an optimal design, making it computationally expensive or
// impractical to use traditional scientific simulators". A trained
// MGDiffNet answers each candidate ω in milliseconds, so a brute search
// over the parameter space that would need thousands of FEM solves runs in
// seconds: recover the hidden ω* behind an observed solution field.
//
// Run with: go run ./examples/inverse
package main

import (
	"fmt"
	"time"

	"mgdiffnet/internal/core"
	"mgdiffnet/internal/fem"
	"mgdiffnet/internal/field"
	"mgdiffnet/internal/tensor"
	"mgdiffnet/internal/unet"
)

const res = 32

func main() {
	// 1. Train the surrogate once (amortized across every query below).
	ncfg := unet.DefaultConfig(2)
	ncfg.BaseFilters = 8
	cfg := core.Config{
		Dim: 2, Strategy: core.HalfV, Levels: 2, FinestRes: res,
		Samples: 32, BatchSize: 8, LR: 2e-3,
		RestrictionEpochs: 1, MaxEpochsPerStage: 15, Patience: 3, MinDelta: 1e-5,
		Seed: 21, Net: &ncfg,
	}
	fmt.Println("training the surrogate once…")
	tr := core.NewTrainer(cfg)
	rep := tr.Run()
	fmt.Printf("trained in %.1fs (loss %.4f)\n\n", rep.TotalSeconds, rep.FinalLoss)

	// 2. A hidden design produced an observed field (here: the FEM solution
	// for a secret ω*, as a stand-in for sparse sensor data).
	hidden := field.Omega{1.25, -0.80, 0.60, -2.10}
	target, _ := fem.Solve(field.Raster(hidden, 2, res), 1e-10, 20000)
	fmt.Printf("hidden design: ω* = (%.2f, %.2f, %.2f, %.2f)\n", hidden[0], hidden[1], hidden[2], hidden[3])

	mismatch := func(u *tensor.Tensor) float64 { return u.RMSE(target) }

	// 3. Inverse search: Sobol coarse sweep over [-3,3]^4, then local
	// coordinate refinement — every candidate evaluated by the surrogate.
	start := time.Now()
	evals := 0
	best := field.Omega{}
	bestErr := 1e300

	sob := field.NewSobol(field.OmegaDim)
	const sweep = 512
	for k := 0; k < sweep; k++ {
		p := sob.Next()
		var w field.Omega
		for i := range w {
			w[i] = -3 + 6*p[i]
		}
		e := mismatch(tr.Predict(w, res))
		evals++
		if e < bestErr {
			bestErr, best = e, w
		}
	}
	// Coordinate refinement with shrinking steps.
	for _, step := range []float64{0.5, 0.2, 0.08, 0.03} {
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < field.OmegaDim; i++ {
				for _, dir := range []float64{-1, 1} {
					cand := best
					cand[i] += dir * step
					if cand[i] < -3 || cand[i] > 3 {
						continue
					}
					e := mismatch(tr.Predict(cand, res))
					evals++
					if e < bestErr {
						bestErr, best = e, cand
					}
				}
			}
		}
	}
	searchSec := time.Since(start).Seconds()

	fmt.Printf("recovered:     ω̂ = (%.2f, %.2f, %.2f, %.2f)\n", best[0], best[1], best[2], best[3])
	fmt.Printf("field mismatch (surrogate): %.5f after %d evaluations in %.1fs\n", bestErr, evals, searchSec)

	// 4. Validate the recovered design with one real FEM solve, and show
	// what the same search would have cost with FEM in the loop.
	uCheck, _ := fem.Solve(field.Raster(best, 2, res), 1e-10, 20000)
	fmt.Printf("field mismatch (FEM check): %.5f\n", uCheck.RMSE(target))

	femStart := time.Now()
	fem.Solve(field.Raster(best, 2, res), 1e-10, 20000)
	femOne := time.Since(femStart).Seconds()
	fmt.Printf("\namortization: %d surrogate evals took %.1fs; the same search with FEM would take ≈%.0fs (%d × %.3fs/solve)\n",
		evals, searchSec, float64(evals)*femOne, evals, femOne)
}
