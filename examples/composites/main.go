// Composites: thermal transport through a particulate composite — one of
// the applications the paper's conclusion targets ("thermal transport in
// composites — all of which are defined by Equation 3"). The same MGDiffNet
// machinery trains on two-phase inclusion microstructures instead of the
// log-permeability family: the variational loss never needed labels or a
// particular coefficient parameterization, so swapping the data source is
// the only change.
//
// Run with: go run ./examples/composites
package main

import (
	"fmt"

	"mgdiffnet/internal/core"
	"mgdiffnet/internal/fem"
	"mgdiffnet/internal/field"
	"mgdiffnet/internal/unet"
	"mgdiffnet/internal/vtkio"
)

const res = 32

func main() {
	// A family of random particulate microstructures: conductivity 1
	// matrix, conductivity-8 particles.
	data := field.NewInclusionDataset(11, 16, 2, 6, 0.06, 0.14, 1, 8)

	ncfg := unet.DefaultConfig(2)
	ncfg.BaseFilters = 8

	cfg := core.Config{
		Dim: 2, Strategy: core.HalfV, Levels: 2, FinestRes: res,
		Samples: data.Len(), BatchSize: 4, LR: 2e-3,
		RestrictionEpochs: 1, MaxEpochsPerStage: 15, Patience: 3, MinDelta: 1e-5,
		Seed: 5, Net: &ncfg, Data: data,
	}
	fmt.Println("training the composite thermal surrogate (Half-V cycle)…")
	tr := core.NewTrainer(cfg)
	rep := tr.Run()
	fmt.Printf("trained in %.1fs, final energy loss %.5f\n\n", rep.TotalSeconds, rep.FinalLoss)

	// Evaluate on a fresh microstructure the network never saw.
	held := field.NewInclusionDataset(99, 1, 2, 6, 0.06, 0.14, 1, 8)
	nuBatch := held.Batch(0, 1, res)
	uBatch := tr.PredictField(nuBatch)

	nu := held.Composites[0].Raster2D(res)
	uFEM, cg := fem.Solve(nu, 1e-10, 20000)
	fmt.Printf("held-out microstructure: volume fraction %.3f, FEM in %d CG iterations\n",
		held.Composites[0].VolumeFraction(2, 101), cg.Iterations)

	uNN := uBatch.Reshape(res, res)
	diff := uNN.Clone()
	diff.Sub(uFEM)
	fmt.Printf("u_MGDiffNet vs u_FEM: RMSE %.5f, max|err| %.5f\n", uNN.RMSE(uFEM), diff.AbsMax())

	// Export for ParaView, as the paper's pipeline would.
	out := "composite.vti"
	err := vtkio.WriteFile(out, []vtkio.Field{
		{Name: "conductivity", Data: nu},
		{Name: "u_mgdiffnet", Data: uNN},
		{Name: "u_fem", Data: uFEM},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("fields written to %s (VTK ImageData, zlib-compressed)\n", out)
}
