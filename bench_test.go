// Repository-level benchmarks: one benchmark per table and figure of the
// paper's evaluation section, plus the ablation benches called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// The benchmarks exercise the same harnesses as cmd/mgbench at quick scale;
// EXPERIMENTS.md records the paper-vs-measured comparison.
package mgdiffnet_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mgdiffnet/internal/core"
	"mgdiffnet/internal/dist"
	"mgdiffnet/internal/experiments"
	"mgdiffnet/internal/fem"
	"mgdiffnet/internal/field"
	"mgdiffnet/internal/gmg"
	"mgdiffnet/internal/nn"
	"mgdiffnet/internal/perfmodel"
	"mgdiffnet/internal/pinn"
	"mgdiffnet/internal/serve"
	"mgdiffnet/internal/sparse"
	"mgdiffnet/internal/tensor"
	"mgdiffnet/internal/unet"
	"mgdiffnet/internal/vtkio"
)

// quickTrainer builds a small trainer for epoch-cost benches.
func quickTrainer(dim, res int, strategy core.Strategy, levels int) *core.Trainer {
	cfg := core.DefaultConfig(dim)
	cfg.Strategy = strategy
	cfg.Levels = levels
	cfg.FinestRes = res
	cfg.Samples = 4
	cfg.BatchSize = 2
	cfg.RestrictionEpochs = 1
	cfg.MaxEpochsPerStage = 2
	cfg.Patience = 1
	net := unet.DefaultConfig(dim)
	net.BaseFilters = 4
	cfg.Net = &net
	return core.NewTrainer(cfg)
}

// BenchmarkFigure2EpochTime measures the per-epoch training cost as the 2D
// resolution grows (the paper's Figure 2 motivation: cost grows sharply
// with degrees of freedom).
func BenchmarkFigure2EpochTime(b *testing.B) {
	for _, res := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("res%d", res), func(b *testing.B) {
			tr := quickTrainer(2, res, core.Base, 1)
			tr.TrainEpoch(res) // warm-up
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.TrainEpoch(res)
			}
		})
	}
}

// BenchmarkTable1Strategies times one full training run per schedule (the
// quantity compared across the paper's Table 1 rows).
func BenchmarkTable1Strategies(b *testing.B) {
	for _, strat := range []core.Strategy{core.Base, core.V, core.W, core.F, core.HalfV} {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				levels := 2
				if strat == core.Base {
					levels = 1
				}
				tr := quickTrainer(2, 32, strat, levels)
				rep := tr.Run()
				if rep.FinalLoss <= 0 {
					b.Fatal("bad loss")
				}
			}
		})
	}
}

// BenchmarkTable2Adaptation times Half-V training with and without
// architectural adaptation (the paper's Table 2 comparison).
func BenchmarkTable2Adaptation(b *testing.B) {
	for _, adapt := range []bool{false, true} {
		name := "NoAdaptation"
		if adapt {
			name = "Adaptation"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(2)
				cfg.Strategy = core.HalfV
				cfg.Levels = 2
				cfg.FinestRes = 32
				cfg.Samples = 4
				cfg.BatchSize = 2
				cfg.RestrictionEpochs = 1
				cfg.MaxEpochsPerStage = 2
				cfg.Patience = 1
				cfg.Adapt = adapt
				net := unet.DefaultConfig(2)
				net.BaseFilters = 4
				cfg.Net = &net
				core.NewTrainer(cfg).Run()
			}
		})
	}
}

// BenchmarkFigure8Epoch3D measures one 3D training epoch at the coarse and
// fine levels of the Figure 8 loss-trajectory study.
func BenchmarkFigure8Epoch3D(b *testing.B) {
	for _, res := range []int{8, 16} {
		b.Run(fmt.Sprintf("res%d", res), func(b *testing.B) {
			tr := quickTrainer(3, 16, core.HalfV, 2)
			tr.TrainEpoch(res)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.TrainEpoch(res)
			}
		})
	}
}

// BenchmarkFigure9Allreduce compares the ring allreduce against the naive
// all-to-all baseline at the gradient sizes of the scaling study (the
// communication ablation of DESIGN.md).
func BenchmarkFigure9Allreduce(b *testing.B) {
	const p = 4
	const n = 1 << 16
	run := func(b *testing.B, reduce func(rank int, x []float64, tr dist.Transport) error) {
		vecs := make([][]float64, p)
		for r := range vecs {
			vecs[r] = make([]float64, n)
			for i := range vecs[r] {
				vecs[r][i] = float64(r + i%7)
			}
		}
		b.SetBytes(int64(8 * n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			trs := dist.NewChannelRing(p)
			var wg sync.WaitGroup
			for r := 0; r < p; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					if err := reduce(r, vecs[r], trs[r]); err != nil {
						b.Error(err)
					}
				}(r)
			}
			wg.Wait()
		}
	}
	b.Run("Ring", func(b *testing.B) {
		run(b, func(rank int, x []float64, tr dist.Transport) error {
			return dist.RingAllReduce(rank, p, x, tr)
		})
	})
	b.Run("NaiveAllToAll", func(b *testing.B) {
		run(b, func(rank int, x []float64, tr dist.Transport) error {
			return dist.NaiveAllReduce(rank, p, x, tr)
		})
	})
	// The trainer's collective: rank-order reduce-scatter + all-gather
	// through persistent Communicators — same asymptotic traffic as the
	// ring, zero steady-state allocations, chunking-invariant sums.
	b.Run("RankOrderComm", func(b *testing.B) {
		trs := dist.NewChannelRing(p)
		comms := make([]*dist.Communicator, p)
		vecs := make([][]float64, p)
		for r := 0; r < p; r++ {
			comms[r] = dist.NewCommunicator(trs[r])
			vecs[r] = make([]float64, n)
			for i := range vecs[r] {
				vecs[r][i] = float64(r + i%7)
			}
		}
		b.SetBytes(int64(8 * n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for r := 0; r < p; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					if err := comms[r].AllReduce(vecs[r]); err != nil {
						b.Error(err)
					}
				}(r)
			}
			wg.Wait()
		}
	})
}

// BenchmarkBucketedAllreduceOverlap isolates the DDP overlap strategy the
// trainer uses: each rank "produces" its gradient vector bucket by bucket
// (standing in for backward) while a per-rank comm goroutine reduces
// finished buckets concurrently. The monolithic case produces everything
// first and reduces once. Chunking invariance of the rank-order collective
// makes the two bit-identical, so the benchmark measures pure overlap.
func BenchmarkBucketedAllreduceOverlap(b *testing.B) {
	const p = 4
	const n = 1 << 16
	const nb = 8
	const bucket = n / nb
	trs := dist.NewChannelRing(p)
	comms := make([]*dist.Communicator, p)
	vecs := make([][]float64, p)
	for r := 0; r < p; r++ {
		comms[r] = dist.NewCommunicator(trs[r])
		vecs[r] = make([]float64, n)
	}
	produce := func(x []float64, lo, hi, r, iter int) {
		for i := lo; i < hi; i++ {
			x[i] = float64(r+1)*0.5 + float64(i%13)*0.01 + float64(iter%7)
		}
	}
	b.Run("Monolithic", func(b *testing.B) {
		b.SetBytes(8 * n)
		for it := 0; it < b.N; it++ {
			var wg sync.WaitGroup
			for r := 0; r < p; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					produce(vecs[r], 0, n, r, it)
					if err := comms[r].AllReduce(vecs[r]); err != nil {
						b.Error(err)
					}
				}(r)
			}
			wg.Wait()
		}
	})
	b.Run("BucketedOverlap", func(b *testing.B) {
		b.SetBytes(8 * n)
		for it := 0; it < b.N; it++ {
			var wg sync.WaitGroup
			for r := 0; r < p; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					x := vecs[r]
					ready := make(chan int, nb)
					done := make(chan error, 1)
					go func() {
						var firstErr error
						for lo := range ready {
							hi := min(lo+bucket, n)
							if err := comms[r].AllReduce(x[lo:hi]); err != nil && firstErr == nil {
								firstErr = err
							}
						}
						done <- firstErr
					}()
					for lo := 0; lo < n; lo += bucket {
						produce(x, lo, min(lo+bucket, n), r, it)
						ready <- lo
					}
					close(ready)
					if err := <-done; err != nil {
						b.Error(err)
					}
				}(r)
			}
			wg.Wait()
		}
	})
}

// BenchmarkFigure9ParallelEpoch measures a data-parallel 3D epoch at
// increasing worker counts — the measured half of the strong-scaling study.
func BenchmarkFigure9ParallelEpoch(b *testing.B) {
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", p), func(b *testing.B) {
			net := unet.DefaultConfig(3)
			net.BaseFilters = 4
			net.Depth = 2
			net.BatchNorm = false
			pt, err := dist.NewParallelTrainer(dist.ParallelConfig{
				Workers: p, Dim: 3, Res: 8, Samples: 8, GlobalBatch: 4,
				LR: 1e-3, Seed: 5, Net: &net,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer pt.Close()
			if _, err := pt.TrainEpoch(8); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pt.TrainEpoch(8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistHalfVStage times one distributed Half-V stage: the
// coarsest-entry prolongation stage of the multigrid schedule, run
// data-parallel through core.RunSchedule with a 2-worker ParallelTrainer
// backend (PR 3's BENCH_pr3.json case).
func BenchmarkDistHalfVStage(b *testing.B) {
	net := unet.DefaultConfig(2)
	net.BaseFilters = 4
	net.BatchNorm = false
	cfg := core.DefaultConfig(2)
	cfg.Strategy = core.HalfV
	cfg.Levels = 1
	cfg.FinestRes = 16
	cfg.Samples = 8
	cfg.BatchSize = 4
	cfg.MaxEpochsPerStage = 2
	cfg.Patience = 1
	cfg.Seed = 9
	cfg.Net = &net
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pt, err := dist.NewParallelTrainer(dist.ParallelConfig{
			Workers: 2, Dim: 2, Res: cfg.FinestRes, Samples: cfg.Samples,
			GlobalBatch: cfg.BatchSize, LR: cfg.LR, Seed: cfg.Seed, Net: &net,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rep, err := core.RunSchedule(cfg, pt, core.RunOptions{})
		b.StopTimer()
		pt.Close()
		if err != nil {
			b.Fatal(err)
		}
		if rep.FinalLoss <= 0 {
			b.Fatal("bad loss")
		}
		b.StartTimer()
	}
}

// BenchmarkFigure10Model evaluates the Bridges2 cluster model across the
// full 1–128 node sweep (cheap; included so every figure has a bench).
func BenchmarkFigure10Model(b *testing.B) {
	nw := unet.New(unet.DefaultConfig(3)).ParamCount()
	w := perfmodel.Figure10Workload(nw)
	nodes := []int{1, 2, 4, 8, 16, 32, 64, 128}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := perfmodel.ScalingSeries(perfmodel.Bridges2, w, nodes, 1)
		if pts[len(pts)-1].Speedup < 1 {
			b.Fatal("bad model")
		}
	}
}

// BenchmarkTable3Inference measures the network prediction used in the
// Tables 3/4/5/7 comparisons.
func BenchmarkTable3Inference(b *testing.B) {
	tr := quickTrainer(2, 32, core.HalfV, 2)
	tr.Run()
	w := experiments.Table3Omega
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := tr.Predict(w, 32)
		if u.Len() == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkInferenceVsFEM is the §4.3 comparison: a forward pass against
// CG and geometric-multigrid solves of the same problem.
func BenchmarkInferenceVsFEM(b *testing.B) {
	const res = 64
	w := experiments.Table3Omega
	nu := field.Raster2D(w, res)
	nuG := field.Raster2D(w, res+1)

	b.Run("Inference", func(b *testing.B) {
		tr := quickTrainer(2, res, core.Base, 1)
		batch := tensor.New(1, 1, res, res)
		copy(batch.Data, nu.Data)
		tr.Net.Forward(batch, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Net.Forward(batch, false)
		}
	})
	b.Run("FEMSolveCG", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, st := fem.Solve2D(nu, 1e-8, 20000); !st.Converged {
				b.Fatal("CG failed")
			}
		}
	})
	b.Run("FEMSolveGMG", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, st := gmg.NewSolver2D(nuG, gmg.Options{Tol: 1e-8}).Solve(); !st.Converged {
				b.Fatal("GMG failed")
			}
		}
	})
}

// BenchmarkAblationMatrixFree compares the training loss gradient computed
// matrix-free against assembling a CSR stiffness matrix and applying it —
// design choice 1 of DESIGN.md.
func BenchmarkAblationMatrixFree(b *testing.B) {
	const res = 64
	w := experiments.Table3Omega
	nu := field.Raster2D(w, res)
	p := fem.NewPoisson2D(res)
	u := p.BoundaryField()
	out := tensor.New(res, res)

	b.Run("MatrixFree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Apply(u, nu, out)
		}
	})
	b.Run("AssembleAndApply", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, _ := fem.Assemble2D(p, nu)
			m.Apply(out.Data, u.Data)
		}
	})
	b.Run("ApplyOnlyCSR", func(b *testing.B) {
		m, _ := fem.Assemble2D(p, nu)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Apply(out.Data, u.Data)
		}
	})
}

// BenchmarkAblationRestriction compares the two ways of producing coarse
// inputs: rasterizing the analytic field at the coarse grid versus
// average-pooling the fine raster — design choice 3 of DESIGN.md.
func BenchmarkAblationRestriction(b *testing.B) {
	w := experiments.Table3Omega
	const fine = 64
	b.Run("RasterCoarse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			field.Raster2D(w, fine/2)
		}
	})
	b.Run("AvgPoolFine", func(b *testing.B) {
		f := tensor.New(1, 1, fine, fine)
		copy(f.Data, field.Raster2D(w, fine).Data)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.RestrictInput(f)
		}
	})
}

// BenchmarkSubstrates covers the hot kernels the whole system rests on.
func BenchmarkSubstrates(b *testing.B) {
	b.Run("Conv2D_16ch_64x64", func(b *testing.B) {
		rng := nn.NewRNG(1)
		c := nn.NewConv2D(rng, "c", 16, 16, 3, 1, 1)
		x := tensor.New(1, 16, 64, 64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Forward(x, false)
		}
	})
	b.Run("Conv3D_8ch_16cube", func(b *testing.B) {
		rng := nn.NewRNG(2)
		c := nn.NewConv3D(rng, "c", 8, 8, 3, 1, 1)
		x := tensor.New(1, 8, 16, 16, 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Forward(x, false)
		}
	})
	b.Run("Energy3D_32cube", func(b *testing.B) {
		p := fem.NewPoisson3D(32)
		u := p.BoundaryField()
		nu := field.Raster3D(experiments.Table3Omega, 32)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Energy(u, nu)
		}
	})
	b.Run("Sobol4D", func(b *testing.B) {
		s := field.NewSobol(4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Next()
		}
	})
	b.Run("CG_Laplace2D_65", func(b *testing.B) {
		nu := tensor.Full(1, 65, 65)
		p := fem.NewPoisson2D(65)
		m, rhs := fem.Assemble2D(p, nu)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x := make([]float64, m.Size())
			sparse.CG(m, rhs, x, 1e-8, 10000)
		}
	})
}

// BenchmarkAblationConv3DBackward is the training-path half of the 3D
// lowering ablation: direct loops vs col2im GEMM gradients.
func BenchmarkAblationConv3DBackward(b *testing.B) {
	rng := nn.NewRNG(53)
	res := 32
	if testing.Short() {
		res = 16
	}
	c := nn.NewConv3D(rng, "c", 4, 8, 3, 1, 1)
	x := tensor.New(1, 4, res, res, res)
	for i := range x.Data {
		x.Data[i] = float64(i%19) * 0.07
	}
	out := c.Forward(x, true)
	gradOut := tensor.New(out.Shape()...)
	for i := range gradOut.Data {
		gradOut.Data[i] = float64(i%23) * 0.03
	}
	b.Run("Direct", func(b *testing.B) {
		c.Algo = nn.ConvDirect
		for i := 0; i < b.N; i++ {
			nn.ZeroGrads(c)
			c.Backward(gradOut)
		}
	})
	b.Run("Im2colGEMM", func(b *testing.B) {
		c.Algo = nn.ConvGEMM
		for i := 0; i < b.N; i++ {
			nn.ZeroGrads(c)
			c.Backward(gradOut)
		}
	})
}

// BenchmarkMatMul compares the blocked parallel GEMM with the naive loop.
func BenchmarkMatMul(b *testing.B) {
	const n = 192
	a := tensor.New(n, n)
	c := tensor.New(n, n)
	for i := range a.Data {
		a.Data[i] = float64(i % 7)
		c.Data[i] = float64(i % 11)
	}
	b.Run("Blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MatMul(a, c)
		}
	})
	b.Run("Naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MatMulNaive(a, c)
		}
	})
}

// BenchmarkModelParallelInference measures slab-decomposed inference (the
// paper's model-parallel future-work extension) against the monolithic
// forward pass.
func BenchmarkModelParallelInference(b *testing.B) {
	cfg := unet.DefaultConfig(2)
	cfg.BaseFilters = 4
	net := unet.New(cfg)
	x := tensor.New(1, 1, 128, 128)
	for i := range x.Data {
		x.Data[i] = float64(i%17) * 0.05
	}
	b.Run("Monolithic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net.Forward(x, false)
		}
	})
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("Slabs%d", workers), func(b *testing.B) {
			si, err := dist.NewSpatialInference(net, workers, dist.HaloFor(net))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := si.Forward(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchOmega derives a distinct parameter vector per request index so the
// serving benchmarks measure batched dispatch, not cache or dedup hits.
func benchOmega(k int) field.Omega {
	var w field.Omega
	for j := range w {
		frac := float64((k*2654435761+j*40503)%10000) / 10000.0
		w[j] = -3 + 6*frac
	}
	return w
}

// BenchmarkServeThroughput is the serving acceptance benchmark: requests/s
// of the batched multi-replica engine (by coalescing width) against two
// sequential per-request baselines — one rasterize + net.Forward + BC
// imposition per query. SequentialForward pins DirectConv and is the
// pre-serving consumer exactly as it shipped before this subsystem (2D
// nets had no GEMM dispatch, every mginfer/experiment query paid the
// direct loops); SequentialLowered is the same per-request loop with the
// engine's kernel selection, isolating how much of the win is lowering
// versus dispatch. Every request uses a distinct ω, so the engine's cache
// and single-flight dedup never fire.
func BenchmarkServeThroughput(b *testing.B) {
	const res = 16
	cfg := unet.DefaultConfig(2)
	cfg.Depth = 2
	cfg.BaseFilters = 4
	net := unet.New(cfg)
	loss := fem.NewEnergyLoss(2)

	direct := cfg
	direct.DirectConv = true
	directNet := unet.New(direct)

	sequential := func(b *testing.B, n *unet.UNet) {
		in := tensor.New(1, 1, res, res)
		for i := 0; i < b.N; i++ {
			field.RasterInto(in.Data, benchOmega(i), 2, res)
			u := loss.WithBC(n.Forward(in, false))
			if u.Len() == 0 {
				b.Fatal("empty")
			}
		}
	}
	b.Run("SequentialForward", func(b *testing.B) { sequential(b, directNet) })
	b.Run("SequentialLowered", func(b *testing.B) { sequential(b, net) })

	for _, window := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("BatchedWindow%d", window), func(b *testing.B) {
			eng, err := serve.NewEngine(serve.Config{
				Net:         net,
				Replicas:    1, // single-replica: the ratio is pure batching, not parallelism
				MaxBatch:    window,
				BatchWindow: 200 * time.Microsecond,
				MaxQueue:    64, // above the client count: throughput, not shedding, is under test
				CacheSize:   -1,
				SlabVoxels:  -1,
				WarmRes:     []int{res},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			// More clients than cores keeps the queue saturated so batches
			// fill to MaxBatch instead of waiting out the window.
			const clients = 16
			var next atomic.Int64
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						k := next.Add(1) - 1
						if k >= int64(b.N) {
							return
						}
						if _, err := eng.Solve(context.Background(), benchOmega(int(k)), res); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkVTKWrite measures the zlib-compressed field export path.
func BenchmarkVTKWrite(b *testing.B) {
	nu := field.Raster2D(experiments.Table3Omega, 128)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := vtkio.WriteImageData(&buf, []vtkio.Field{{Name: "nu", Data: nu}}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(8 * nu.Len()))
}

// BenchmarkBaselinePINNSolve times one pointwise single-instance solve —
// the per-query cost of the non-amortized baseline.
func BenchmarkBaselinePINNSolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := pinn.DefaultConfig(experiments.Table3Omega)
		cfg.Epochs = 50
		cfg.Collocation = 128
		pinn.New(cfg).Solve()
	}
}

// BenchmarkSupervisedLabelGeneration times the FEM annotation cost the
// variational loss avoids (one label solve at 32²).
func BenchmarkSupervisedLabelGeneration(b *testing.B) {
	nu := field.Raster2D(experiments.Table3Omega, 32)
	for i := 0; i < b.N; i++ {
		if _, st := fem.Solve2D(nu, 1e-8, 20000); !st.Converged {
			b.Fatal("label solve failed")
		}
	}
}

// BenchmarkAblationConvBackward compares the direct backward loops against
// the GEMM lowering (col2im) for the training path.
func BenchmarkAblationConvBackward(b *testing.B) {
	rng := nn.NewRNG(51)
	c := nn.NewConv2D(rng, "c", 8, 8, 3, 1, 1)
	x := tensor.New(2, 8, 32, 32)
	for i := range x.Data {
		x.Data[i] = float64(i%19) * 0.07
	}
	out := c.Forward(x, true)
	gradOut := tensor.New(out.Shape()...)
	for i := range gradOut.Data {
		gradOut.Data[i] = float64(i%23) * 0.03
	}
	b.Run("Direct", func(b *testing.B) {
		c.Algo = nn.ConvDirect
		for i := 0; i < b.N; i++ {
			nn.ZeroGrads(c)
			c.Backward(gradOut)
		}
	})
	b.Run("Im2colGEMM", func(b *testing.B) {
		c.Algo = nn.ConvGEMM
		for i := 0; i < b.N; i++ {
			nn.ZeroGrads(c)
			c.Backward(gradOut)
		}
	})
}

// BenchmarkServeOverload quantifies what admission control buys at 2×
// capacity: goodput (successfully answered requests/s) and the p99
// latency of answered requests, with the shedding queue bounded
// (ShedOn) versus effectively unbounded (ShedOff). Capacity is pinned
// by a deterministic per-batch fault delay, and the offered load is an
// open-loop arrival process at twice that capacity — arrivals do not
// wait for completions, exactly the regime where an unbounded queue
// grows without limit. With shedding on, excess work is refused in
// O(µs) with a typed ErrOverloaded and the admitted tail stays flat;
// with shedding off, every request is admitted and the backlog
// converts overload into p99.
func BenchmarkServeOverload(b *testing.B) {
	const (
		res      = 16
		replicas = 1
		maxBatch = 4
		delay    = 2 * time.Millisecond // per-batch service time floor
		// Capacity is maxBatch requests per delay; arrivals come at 2×.
		interval = delay / (2 * maxBatch * replicas)
	)
	cfg := unet.DefaultConfig(2)
	cfg.Depth = 2
	cfg.BaseFilters = 4
	net := unet.New(cfg)

	run := func(b *testing.B, maxQueue int) {
		eng, err := serve.NewEngine(serve.Config{
			Net:         net,
			Replicas:    replicas,
			MaxBatch:    maxBatch,
			BatchWindow: 200 * time.Microsecond,
			MaxQueue:    maxQueue,
			CacheSize:   -1,
			SlabVoxels:  -1,
			WarmRes:     []int{res},
			Faults:      &serve.Faults{Seed: 7, SlowReplicaProb: 1, ReplicaDelay: delay},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()

		var (
			mu   sync.Mutex
			lat  []time.Duration
			shed int
		)
		b.ResetTimer()
		start := time.Now()
		var wg sync.WaitGroup
		// Absolute-deadline pacing: request k is due at start + k·interval.
		// A coarse sleep overshoots into a burst of catch-up arrivals, but
		// the average offered rate stays pinned at 2× capacity regardless
		// of the host's timer resolution.
		for k := 0; k < b.N; k++ {
			if d := time.Until(start.Add(time.Duration(k) * interval)); d > 0 {
				time.Sleep(d)
			}
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				t0 := time.Now()
				_, err := eng.Solve(context.Background(), benchOmega(k), res)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err == nil:
					lat = append(lat, time.Since(t0))
				case errors.Is(err, serve.ErrOverloaded):
					shed++
				default:
					b.Error(err)
				}
			}(k)
		}
		wg.Wait()
		elapsed := time.Since(start)
		b.StopTimer()

		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		if len(lat) > 0 {
			p99 := lat[(len(lat)*99)/100]
			if p99 >= lat[len(lat)-1] {
				p99 = lat[len(lat)-1]
			}
			b.ReportMetric(float64(p99)/1e6, "p99_ms")
			b.ReportMetric(float64(len(lat))/elapsed.Seconds(), "goodput_rps")
		}
		b.ReportMetric(float64(shed)/float64(b.N), "shed_frac")
	}

	b.Run("ShedOn", func(b *testing.B) { run(b, 2*maxBatch) })
	b.Run("ShedOff", func(b *testing.B) { run(b, 1<<20) })
}
