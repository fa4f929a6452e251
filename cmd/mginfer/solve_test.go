package main

import (
	"fmt"
	"math"
	"testing"

	"mgdiffnet/internal/fem"
	"mgdiffnet/internal/field"
	"mgdiffnet/internal/unet"
)

// Below the slab threshold the single-ω answer is the monolithic forward
// with the boundary data imposed, bit for bit, in 2D and in 3D.
func TestSolveOneMatchesMonolithicForward(t *testing.T) {
	w := field.Omega{0.3105, 1.5386, 0.0932, -1.2442}
	for _, tc := range []struct{ dim, res int }{{2, 32}, {3, 16}} {
		t.Run(fmt.Sprintf("%dD", tc.dim), func(t *testing.T) {
			cfg := unet.DefaultConfig(tc.dim)
			cfg.Depth, cfg.BaseFilters = 2, 4
			net := unet.New(cfg)
			nu := field.Raster(w, tc.dim, tc.res)
			shape := nu.Shape()
			want := fem.NewEnergyLoss(tc.dim).WithBC(net.Forward(nu.Reshape(append([]int{1, 1}, shape...)...), false))
			got, err := solveOne(net, w, tc.res)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != want.Len() {
				t.Fatalf("%d values, want %d", got.Len(), want.Len())
			}
			for i, v := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
					t.Fatalf("element %d is %v, monolithic forward %v", i, got.Data[i], v)
				}
			}
		})
	}
}
