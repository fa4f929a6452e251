package nn

import (
	"fmt"
	"math"
	"testing"

	"mgdiffnet/internal/tensor"
)

// maxAbsDiff returns max |a-b| over the elements.
func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestConv2DGEMMEquivalence pins the 2D auto-lowering against the direct
// loops (the correctness oracle) for forward and backward across kernel
// sizes, strides and paddings, to floating-point summation-order
// tolerance.
func TestConv2DGEMMEquivalence(t *testing.T) {
	cases := []struct{ n, ci, co, res, k, s, p int }{
		{1, 1, 4, 8, 3, 1, 1},
		{2, 4, 8, 16, 3, 1, 1},
		{3, 2, 2, 9, 3, 2, 1},
		{1, 4, 1, 16, 1, 1, 0},
		{2, 3, 5, 12, 5, 1, 2},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n%d_ci%d_co%d_res%d_k%d_s%d", tc.n, tc.ci, tc.co, tc.res, tc.k, tc.s), func(t *testing.T) {
			rng := NewRNG(11)
			direct := NewConv2D(rng, "c", tc.ci, tc.co, tc.k, tc.s, tc.p)
			direct.Algo = ConvDirect
			gemm := NewConv2D(NewRNG(0), "c", tc.ci, tc.co, tc.k, tc.s, tc.p)
			gemm.Algo = ConvGEMM
			gemm.W.Data.CopyFrom(direct.W.Data)
			gemm.B.Data.CopyFrom(direct.B.Data)

			x := tensor.New(tc.n, tc.ci, tc.res, tc.res)
			for i := range x.Data {
				x.Data[i] = math.Sin(float64(i) * 0.7)
			}
			yd := direct.Forward(x, true)
			yg := gemm.Forward(x, true)
			if d := maxAbsDiff(yd.Data, yg.Data); d > 1e-12 {
				t.Fatalf("forward diverges: max |diff| %g", d)
			}

			g := tensor.New(yd.Shape()...)
			for i := range g.Data {
				g.Data[i] = math.Cos(float64(i) * 0.3)
			}
			ZeroGrads(direct)
			ZeroGrads(gemm)
			gid := direct.Backward(g)
			gig := gemm.Backward(g)
			if d := maxAbsDiff(gid.Data, gig.Data); d > 1e-12 {
				t.Fatalf("input gradient diverges: max |diff| %g", d)
			}
			if d := maxAbsDiff(direct.W.Grad.Data, gemm.W.Grad.Data); d > 1e-11 {
				t.Fatalf("weight gradient diverges: max |diff| %g", d)
			}
			if d := maxAbsDiff(direct.B.Grad.Data, gemm.B.Grad.Data); d > 1e-11 {
				t.Fatalf("bias gradient diverges: max |diff| %g", d)
			}
		})
	}
}

// TestConv2DAutoDefaultsToGEMM pins the dispatch: the zero-value Algo
// lowers (ConvAuto), and the results equal an explicit ConvGEMM bitwise.
func TestConv2DAutoDefaultsToGEMM(t *testing.T) {
	rng := NewRNG(13)
	auto := NewConv2D(rng, "c", 2, 3, 3, 1, 1)
	pinned := NewConv2D(NewRNG(0), "c", 2, 3, 3, 1, 1)
	pinned.Algo = ConvGEMM
	pinned.W.Data.CopyFrom(auto.W.Data)
	pinned.B.Data.CopyFrom(auto.B.Data)

	x := tensor.New(2, 2, 8, 8)
	for i := range x.Data {
		x.Data[i] = math.Sin(float64(i))
	}
	ya := auto.Forward(x, false)
	yp := pinned.Forward(x, false)
	for i := range ya.Data {
		if ya.Data[i] != yp.Data[i] {
			t.Fatalf("ConvAuto result differs from ConvGEMM at %d", i)
		}
	}
}

// TestConvTranspose2DGEMMEquivalence pins the transposed-convolution
// lowering against its direct gather loops, for the two shapes the U-Net
// uses (kernel-2/stride-2 upsamplers and stride-1 refinement layers) plus
// a padded strided case.
func TestConvTranspose2DGEMMEquivalence(t *testing.T) {
	cases := []struct{ n, ci, co, res, k, s, p int }{
		{1, 8, 4, 8, 2, 2, 0},
		{2, 4, 4, 16, 3, 1, 1},
		{3, 2, 5, 7, 4, 2, 1},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n%d_ci%d_co%d_res%d_k%d_s%d", tc.n, tc.ci, tc.co, tc.res, tc.k, tc.s), func(t *testing.T) {
			rng := NewRNG(23)
			direct := NewConvTranspose(rng, "t", 2, tc.ci, tc.co, tc.k, tc.s, tc.p)
			direct.Algo = ConvDirect
			gemm := NewConvTranspose(NewRNG(0), "t", 2, tc.ci, tc.co, tc.k, tc.s, tc.p)
			gemm.Algo = ConvGEMM
			gemm.W.Data.CopyFrom(direct.W.Data)
			gemm.B.Data.CopyFrom(direct.B.Data)

			x := tensor.New(tc.n, tc.ci, tc.res, tc.res)
			for i := range x.Data {
				x.Data[i] = math.Sin(float64(i) * 0.45)
			}
			yd := direct.Forward(x, true)
			yg := gemm.Forward(x, true)
			if d := maxAbsDiff(yd.Data, yg.Data); d > 1e-12 {
				t.Fatalf("forward diverges: max |diff| %g", d)
			}

			g := tensor.New(yd.Shape()...)
			for i := range g.Data {
				g.Data[i] = math.Cos(float64(i) * 0.21)
			}
			ZeroGrads(direct)
			ZeroGrads(gemm)
			gid := direct.Backward(g)
			gig := gemm.Backward(g)
			if d := maxAbsDiff(gid.Data, gig.Data); d > 1e-12 {
				t.Fatalf("input gradient diverges: max |diff| %g", d)
			}
			if d := maxAbsDiff(direct.W.Grad.Data, gemm.W.Grad.Data); d > 1e-11 {
				t.Fatalf("weight gradient diverges: max |diff| %g", d)
			}
			if d := maxAbsDiff(direct.B.Grad.Data, gemm.B.Grad.Data); d > 1e-11 {
				t.Fatalf("bias gradient diverges: max |diff| %g", d)
			}
		})
	}
}

// TestConvTranspose2DGEMMBatchInvariance mirrors the Conv2D contract for
// the upsampling path: batched results are bit-identical to solo runs.
func TestConvTranspose2DGEMMBatchInvariance(t *testing.T) {
	rng := NewRNG(29)
	c := NewConvTranspose(rng, "t", 2, 4, 3, 2, 2, 0)
	const res = 8
	const n = 5
	per := 4 * res * res

	batch := tensor.New(n, 4, res, res)
	for i := range batch.Data {
		batch.Data[i] = math.Sin(float64(i) * 0.19)
	}
	yBatch := c.Forward(batch, false).Clone()
	outPer := yBatch.Len() / n

	single := tensor.New(1, 4, res, res)
	for s := 0; s < n; s++ {
		copy(single.Data, batch.Data[s*per:(s+1)*per])
		y := c.Forward(single, false)
		for i := range y.Data {
			if y.Data[i] != yBatch.Data[s*outPer+i] {
				t.Fatalf("sample %d element %d: batched %v, single %v", s, i, yBatch.Data[s*outPer+i], y.Data[i])
			}
		}
	}
}

// TestConv2DGEMMBatchInvariance pins what the serving engine's coalescing
// relies on: a sample's forward output is bit-identical whether it runs
// alone or inside a larger batch (the GEMM accumulates each output
// element's terms in a fixed ascending order).
func TestConv2DGEMMBatchInvariance(t *testing.T) {
	rng := NewRNG(17)
	c := NewConv2D(rng, "c", 3, 5, 3, 1, 1)
	const res = 16
	const n = 6
	per := 3 * res * res

	batch := tensor.New(n, 3, res, res)
	for i := range batch.Data {
		batch.Data[i] = math.Sin(float64(i) * 0.13)
	}
	yBatch := c.Forward(batch, false).Clone()
	outPer := yBatch.Len() / n

	single := tensor.New(1, 3, res, res)
	for s := 0; s < n; s++ {
		copy(single.Data, batch.Data[s*per:(s+1)*per])
		y := c.Forward(single, false)
		for i := range y.Data {
			if y.Data[i] != yBatch.Data[s*outPer+i] {
				t.Fatalf("sample %d element %d: batched %v, single %v", s, i, yBatch.Data[s*outPer+i], y.Data[i])
			}
		}
	}
}
