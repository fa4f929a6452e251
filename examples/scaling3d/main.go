// Scaling3D: the paper's distributed story at reproduction scale. Train a
// 3D DiffNet with data-parallel workers (goroutines standing in for MPI
// ranks) whose gradients are averaged by the trainer's collective, the
// rank-order reduce-scatter + all-gather of dist.Communicator; verify the
// worker-count independence guarantee (Eq. 15) and measure the in-process
// strong scaling.
//
// Run with: go run ./examples/scaling3d
package main

import (
	"fmt"
	"runtime"

	"mgdiffnet/internal/dist"
	"mgdiffnet/internal/unet"
)

func main() {
	fmt.Println("== measured in-process strong scaling (3D, rank-order allreduce)")
	const res, samples, batch = 16, 8, 4
	maxW := runtime.GOMAXPROCS(0)
	if maxW > 4 {
		maxW = 4
	}
	var baseSec float64
	for p := 1; p <= maxW; p *= 2 {
		net := unet.DefaultConfig(3)
		net.BaseFilters = 4
		net.BatchNorm = false
		cfg := dist.ParallelConfig{
			Workers: p, Dim: 3, Res: res,
			Samples: samples, GlobalBatch: batch, LR: 1e-3, Seed: 3, Net: &net,
		}
		pt, err := dist.NewParallelTrainer(cfg)
		if err != nil {
			panic(err)
		}
		pt.TimeEpoch(res) // warm-up; TrainEpoch throttles kernels to GOMAXPROCS/p
		dur, loss, err := pt.TimeEpoch(res)
		if err != nil {
			panic(err)
		}
		div := pt.MaxReplicaDivergence()
		pt.Close()
		sec := dur.Seconds()
		if p == 1 {
			baseSec = sec
		}
		fmt.Printf("  p=%d: epoch %.3fs, speedup %.2fx, loss %.5f, replica divergence %g\n",
			p, sec, baseSec/sec, loss, div)
	}
}
