// Poisson2D: the paper's motivating workload — a neural surrogate for a
// *family* of 2D generalized Poisson problems −∇·(ν(x;ω)∇u)=0. One
// network, trained once with the multigrid schedule, answers any ω in the
// sampled range; this example evaluates it on the anecdotal parameter
// vectors from the paper's Tables 4 and 7 and renders ASCII heatmaps of
// the fields.
//
// Run with: go run ./examples/poisson2d
package main

import (
	"fmt"
	"strings"

	"mgdiffnet/internal/core"
	"mgdiffnet/internal/fem"
	"mgdiffnet/internal/field"
	"mgdiffnet/internal/tensor"
	"mgdiffnet/internal/unet"
)

const res = 32

// heatmap renders a [res,res] field as an ASCII intensity plot.
func heatmap(f *tensor.Tensor, title string) string {
	shades := []rune(" .:-=+*#%@")
	lo, hi := f.Min(), f.Max()
	span := hi - lo
	if span == 0 {
		span = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  [%.3f, %.3f]\n", title, lo, hi)
	step := f.Dim(0) / 16
	if step < 1 {
		step = 1
	}
	for iy := 0; iy < f.Dim(0); iy += step {
		for ix := 0; ix < f.Dim(1); ix += step {
			v := (f.At(iy, ix) - lo) / span
			idx := int(v * float64(len(shades)-1))
			b.WriteRune(shades[idx])
			b.WriteRune(shades[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func main() {
	ncfg := unet.DefaultConfig(2)
	ncfg.BaseFilters = 8

	cfg := core.Config{
		Dim: 2, Strategy: core.HalfV, Levels: 2, FinestRes: res,
		Samples: 32, BatchSize: 8, LR: 2e-3,
		RestrictionEpochs: 1, MaxEpochsPerStage: 20, Patience: 3, MinDelta: 1e-5,
		Seed: 7, Net: &ncfg,
	}
	fmt.Println("training the parametric Poisson surrogate (one network, all ω)…")
	tr := core.NewTrainer(cfg)
	rep := tr.Run()
	fmt.Printf("trained in %.1fs, loss %.5f\n\n", rep.TotalSeconds, rep.FinalLoss)

	omegas := []field.Omega{
		{0.6681, 1.5354, 0.7644, -2.9709},  // Table 4, row 1
		{1.3821, 2.5508, 0.1750, 2.1269},   // Table 4, row 2
		{0.0293, -2.0943, 0.1386, -2.3271}, // Table 7, row 3
	}

	fmt.Printf("%-36s %-10s %-10s %-10s\n", "omega", "RMSE", "max|err|", "rel L2")
	for _, w := range omegas {
		uNN := tr.Predict(w, res)
		uFEM, _ := fem.Solve(field.Raster(w, 2, res), 1e-10, 20000)
		diff := uNN.Clone()
		diff.Sub(uFEM)
		fmt.Printf("(%7.4f %7.4f %7.4f %7.4f) %-10.5f %-10.5f %-10.5f\n",
			w[0], w[1], w[2], w[3], uNN.RMSE(uFEM), diff.AbsMax(), diff.Norm2()/uFEM.Norm2())
	}
	fmt.Println()

	// Visualize the first case like the paper's field plots.
	w := omegas[0]
	nu := field.Raster(w, 2, res)
	uNN := tr.Predict(w, res)
	uFEM, _ := fem.Solve(nu, 1e-10, 20000)
	fmt.Println(heatmap(nu, "diffusivity ν(x; ω)"))
	fmt.Println(heatmap(uNN, "u_MGDiffNet"))
	fmt.Println(heatmap(uFEM, "u_FEM"))
}
