// Quickstart: train a small 2D MGDiffNet with the paper's best schedule
// (Half-V cycle), predict a full solution field for an unseen diffusivity
// map, and compare it against the traditional FEM solve.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"mgdiffnet/internal/core"
	"mgdiffnet/internal/fem"
	"mgdiffnet/internal/field"
	"mgdiffnet/internal/unet"
)

func main() {
	// A small network and dataset keep this under a minute on a laptop;
	// scale FinestRes/Samples/BaseFilters up toward the paper's sizes.
	ncfg := unet.DefaultConfig(2)
	ncfg.BaseFilters = 8

	cfg := core.Config{
		Dim:               2,
		Strategy:          core.HalfV, // the paper's winner (Table 1)
		Levels:            3,
		FinestRes:         32,
		Samples:           16,
		BatchSize:         4,
		LR:                2e-3,
		RestrictionEpochs: 1,
		MaxEpochsPerStage: 15,
		Patience:          3,
		MinDelta:          1e-5,
		Seed:              42,
		Net:               &ncfg,
		Logf: func(format string, args ...any) {
			fmt.Printf("  "+format+"\n", args...)
		},
	}

	fmt.Println("training MGDiffNet (Half-V cycle, 3 levels, finest 32x32)…")
	tr := core.NewTrainer(cfg)
	rep := tr.Run()
	fmt.Printf("trained in %.1fs, final energy loss %.5f\n\n", rep.TotalSeconds, rep.FinalLoss)

	// Predict for the ω the paper visualizes in its Table 3.
	w := field.Omega{0.3105, 1.5386, 0.0932, -1.2442}
	uNN := tr.Predict(w, 32)

	// FEM reference on the same grid.
	uFEM, cg := fem.Solve(field.Raster(w, 2, 32), 1e-10, 20000)
	fmt.Printf("FEM reference solved in %d CG iterations\n", cg.Iterations)

	diff := uNN.Clone()
	diff.Sub(uFEM)
	fmt.Printf("u_MGDiffNet vs u_FEM: RMSE %.5f, max|err| %.5f\n", uNN.RMSE(uFEM), diff.AbsMax())

	// The trained network is fully convolutional: the same weights predict
	// at a finer grid, acting as the multigrid prolongation.
	u64 := tr.Predict(w, 64)
	fmt.Printf("same weights at 64x64: u in [%.3f, %.3f] (free prolongation)\n", u64.Min(), u64.Max())
}
