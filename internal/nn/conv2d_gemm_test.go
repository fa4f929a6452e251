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

// TestConv2DGEMMEquivalence pins the forced 2D lowering against the direct
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

// TestConv2DAutoIsDirect pins the dispatch: the zero-value Algo
// (ConvAuto) runs the direct order at Dim 2, so its output and all three
// gradients equal an explicit ConvDirect bitwise. The cases cover strided,
// 1×1 and wide kernels, and a 192² plane whose voxel count is above the
// Dim-3 lowering threshold, which must not apply at Dim 2.
func TestConv2DAutoIsDirect(t *testing.T) {
	cases := []struct{ n, ci, co, res, k, s, p int }{
		{2, 2, 3, 8, 3, 1, 1},
		{3, 2, 4, 9, 3, 2, 1},
		{1, 4, 2, 16, 1, 1, 0},
		{2, 3, 2, 12, 5, 1, 2},
		{1, 1, 2, 192, 3, 1, 1},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n%d_ci%d_co%d_res%d_k%d_s%d", tc.n, tc.ci, tc.co, tc.res, tc.k, tc.s), func(t *testing.T) {
			rng := NewRNG(13)
			auto := NewConv2D(rng, "c", tc.ci, tc.co, tc.k, tc.s, tc.p)
			for i := range auto.B.Data.Data {
				auto.B.Data.Data[i] = 0.1 * float64(i+1)
			}
			pinned := NewConv2D(NewRNG(0), "c", tc.ci, tc.co, tc.k, tc.s, tc.p)
			pinned.Algo = ConvDirect
			pinned.W.Data.CopyFrom(auto.W.Data)
			pinned.B.Data.CopyFrom(auto.B.Data)

			x := tensor.New(tc.n, tc.ci, tc.res, tc.res)
			for i := range x.Data {
				x.Data[i] = math.Sin(float64(i))
			}
			ya, yp := auto.Forward(x, true), pinned.Forward(x, true)
			requireSameBits(t, "output", ya.Data, yp.Data)
			g := tensor.New(ya.Shape()...)
			for i := range g.Data {
				g.Data[i] = math.Cos(float64(i) * 0.3)
			}
			ZeroGrads(auto, pinned)
			requireSameBits(t, "input gradient", auto.Backward(g).Data, pinned.Backward(g).Data)
			requireSameBits(t, "weight gradient", auto.W.Grad.Data, pinned.W.Grad.Data)
			requireSameBits(t, "bias gradient", auto.B.Grad.Data, pinned.B.Grad.Data)
		})
	}
}

// channelMajor views an NCHW tensor as the [C, N·H·W] matrix the lowering
// multiplies, and nchw is its inverse.
func channelMajor(x *tensor.Tensor) *tensor.Tensor {
	n, c, hw := x.Dim(0), x.Dim(1), x.Dim(2)*x.Dim(3)
	m := tensor.New(c, n*hw)
	for s := 0; s < n; s++ {
		for ch := 0; ch < c; ch++ {
			copy(m.Data[ch*n*hw+s*hw:ch*n*hw+(s+1)*hw], x.Data[(s*c+ch)*hw:(s*c+ch+1)*hw])
		}
	}
	return m
}

func nchw(m *tensor.Tensor, n, c, h, w int) *tensor.Tensor {
	x := tensor.New(n, c, h, w)
	hw := h * w
	for s := 0; s < n; s++ {
		for ch := 0; ch < c; ch++ {
			copy(x.Data[(s*c+ch)*hw:(s*c+ch+1)*hw], m.Data[ch*n*hw+s*hw:ch*n*hw+(s+1)*hw])
		}
	}
	return x
}

// TestConvTranspose2DGEMMEquivalence holds the transposed convolution's
// row kernels to the classical GEMM lowering built from the test oracles:
// forward y = Col2Im(Wᵀ·x) + b, input gradient W·Im2Col(g), weight
// gradient x·Im2Col(g)ᵀ and bias gradient the sum of g. The shapes are the
// two the U-Net uses (kernel-2/stride-2 upsamplers and stride-1
// refinement layers) plus a padded strided case, to floating-point
// summation-order tolerance.
func TestConvTranspose2DGEMMEquivalence(t *testing.T) {
	cases := []struct{ n, ci, co, res, k, s, p int }{
		{1, 8, 4, 8, 2, 2, 0},
		{2, 4, 4, 16, 3, 1, 1},
		{3, 2, 5, 7, 4, 2, 1},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n%d_ci%d_co%d_res%d_k%d_s%d", tc.n, tc.ci, tc.co, tc.res, tc.k, tc.s), func(t *testing.T) {
			c := NewConvTranspose(NewRNG(23), "t", 2, tc.ci, tc.co, tc.k, tc.s, tc.p)
			wm := tensor.FromSlice(c.W.Data.Data, tc.ci, tc.co*tc.k*tc.k)
			for i := range c.B.Data.Data {
				c.B.Data.Data[i] = 0.1 * float64(i+1)
			}

			x := tensor.New(tc.n, tc.ci, tc.res, tc.res)
			for i := range x.Data {
				x.Data[i] = math.Sin(float64(i) * 0.45)
			}
			y := c.Forward(x, true)
			ho, wo := y.Dim(2), y.Dim(3)
			xm := channelMajor(x)
			want := Col2Im2D(tensor.MatMulTransA(wm, xm), tc.n, tc.co, ho, wo, tc.k, tc.s, tc.p)
			for i := range want.Data {
				want.Data[i] += c.B.Data.Data[i/(ho*wo)%tc.co]
			}
			if d := maxAbsDiff(y.Data, want.Data); d > 1e-12 {
				t.Fatalf("forward diverges: max |diff| %g", d)
			}

			g := tensor.New(y.Shape()...)
			for i := range g.Data {
				g.Data[i] = math.Cos(float64(i) * 0.21)
			}
			ZeroGrads(c)
			gx := c.Backward(g)
			cols := Im2Col2D(g, tc.k, tc.s, tc.p)
			wantGX := nchw(tensor.MatMul(wm, cols), tc.n, tc.ci, tc.res, tc.res)
			if d := maxAbsDiff(gx.Data, wantGX.Data); d > 1e-12 {
				t.Fatalf("input gradient diverges: max |diff| %g", d)
			}
			if d := maxAbsDiff(c.W.Grad.Data, tensor.MatMulTransB(xm, cols).Data); d > 1e-11 {
				t.Fatalf("weight gradient diverges: max |diff| %g", d)
			}
			wantGB := make([]float64, tc.co)
			for i, v := range g.Data {
				wantGB[i/(ho*wo)%tc.co] += v
			}
			if d := maxAbsDiff(c.B.Grad.Data, wantGB); d > 1e-11 {
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

// TestConvTranspose2DBatchInvarianceServingShapes extends the batch
// contract to the three up-convolutions of the serving U-Net (base 8
// filters, depth 3, 32² input). The row kernel packs planes across
// samples, so each sample of a batch of five must equal its solo run bit
// for bit at every plane width.
func TestConvTranspose2DBatchInvarianceServingShapes(t *testing.T) {
	for _, tc := range []struct{ ci, co, res int }{{64, 32, 4}, {32, 16, 8}, {16, 8, 16}} {
		t.Run(fmt.Sprintf("%d²→%d²", tc.res, 2*tc.res), func(t *testing.T) {
			c := NewConvTranspose(NewRNG(31), "t", 2, tc.ci, tc.co, 2, 2, 0)
			for i := range c.B.Data.Data {
				c.B.Data.Data[i] = 0.1 * float64(i+1)
			}
			const n = 5
			per := tc.ci * tc.res * tc.res
			batch := tensor.New(n, tc.ci, tc.res, tc.res)
			for i := range batch.Data {
				batch.Data[i] = math.Sin(float64(i) * 0.37)
			}
			yBatch := c.Forward(batch, false).Clone()
			outPer := yBatch.Len() / n
			single := tensor.New(1, tc.ci, tc.res, tc.res)
			for s := 0; s < n; s++ {
				copy(single.Data, batch.Data[s*per:(s+1)*per])
				requireSameBits(t, fmt.Sprintf("sample %d", s), c.Forward(single, false).Data, yBatch.Data[s*outPer:(s+1)*outPer])
			}
		})
	}
}
