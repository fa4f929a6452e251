package nn

import (
	"fmt"
	"testing"

	"mgdiffnet/internal/tensor"
)

// directWeightGrad and lowerWeightGrad are the weight-gradient kernels as
// they were before weightGradRows replaced them, kept as references: the row
// kernel must reproduce the order of each bit for bit.

// directWeightGrad adds into gw, parallel over (cout, cin) pairs so the
// accumulation is race-free.
func directWeightGrad(gw, yd, xd []float64, g geom) {
	n, ci, co, s := g.n, g.ci, g.co, g.s
	d, h, w := g.d, g.h, g.w
	do, ho, wo := g.do, g.ho, g.wo
	kd, kh, kw := g.kd, g.kh, g.kw
	pd, ph, pw := g.pd, g.ph, g.pw

	tensor.Parallel(co*ci, kd*kh*kw*do*ho*wo*n, func(lo, hi int) {
		for job := lo; job < hi; job++ {
			oc := job / ci
			cin := job % ci
			wBase := (oc*ci + cin) * kd * kh * kw
			for kz := 0; kz < kd; kz++ {
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw; kx++ {
						oxLo, oxHi := tapRange(wo, w, s, pw, kx)
						acc := 0.0
						for bn := 0; bn < n; bn++ {
							yBase := (bn*co + oc) * do * ho * wo
							xBase := (bn*ci + cin) * d * h * w
							for oz := 0; oz < do; oz++ {
								iz := oz*s - pd + kz
								if iz < 0 || iz >= d {
									continue
								}
								for oy := 0; oy < ho; oy++ {
									iy := oy*s - ph + ky
									if iy < 0 || iy >= h {
										continue
									}
									yRow := yBase + (oz*ho+oy)*wo
									xi := xBase + (iz*h+iy)*w - pw + kx + oxLo*s
									for _, yv := range yd[yRow+oxLo : yRow+oxHi] {
										acc += yv * xd[xi]
										xi += s
									}
								}
							}
						}
						gw[wBase+(kz*kh+ky)*kw+kx] += acc
					}
				}
			}
		}
	})
}

// lowerWeightGrad is weightGrad as W.Grad += y·im2col(x)ᵀ. The product
// accumulates across slabs in a scratch matrix that is added to W.Grad
// once, through tensor.MatMulTransBInto.
func lowerWeightGrad(gwd, yd, xd []float64, g geom) {
	var s convState
	var gwBuf gemmBuf
	co, rows := g.co, g.rows()
	gw := gwBuf.get(co, rows, true)
	dz := g.slabDepth()
	for z0 := 0; z0 < g.do; z0 += dz {
		z1 := min(z0+dz, g.do)
		yMat := s.chanMajor(yd, g, z0, z1)
		cols := s.colsBuf.get(rows, yMat.Dim(1), true)
		im2col(cols.Data, xd, g, z0, z1)
		tensor.MatMulTransBInto(yMat, cols, gw)
	}
	tensor.FromSlice(gwd, co, rows).Add(gw)
}

// The row kernel reproduces both references bit for bit: at rank 4 and 5,
// for the transposed layers' k2/s2 geometry, at batch 1 and 3, across
// several depth slabs with a short last one, chunked and unchunked, on one
// kernel worker and on four.
func TestWeightGradRowsMatchesReferences(t *testing.T) {
	cases := []struct {
		name                                string
		n, ci, co, d, h, w, kd, k, pd, p, s int
		slabs                               int // of the lowered order
	}{
		{"rank4/k3s1p1", 1, 3, 5, 1, 9, 11, 1, 3, 0, 1, 1, 1},
		// K = 3·64·64 > gradChunk: one chunked slab.
		{"rank4/k3s1p1/batch3", 3, 2, 4, 1, 64, 64, 1, 3, 0, 1, 1, 1},
		{"rank4/k1p0", 3, 4, 6, 1, 7, 13, 1, 1, 0, 0, 1, 1},
		{"rank5/k3s1p1", 1, 2, 4, 5, 6, 7, 3, 3, 1, 1, 1, 1},
		{"rank5/k3s1p1/batch3", 3, 2, 5, 5, 6, 7, 3, 3, 1, 1, 1, 1},
		{"rank5/k1p0", 3, 4, 1, 4, 5, 6, 1, 1, 0, 0, 1, 1},
		{"rank5/k3s2p1", 2, 3, 4, 7, 6, 9, 3, 3, 1, 1, 2, 1},
		{"ConvTranspose2D/k2s2", 3, 4, 8, 1, 12, 10, 1, 2, 0, 0, 2, 1},
		{"ConvTranspose3D/k2s2", 1, 4, 8, 6, 8, 10, 2, 2, 0, 0, 2, 1},
		// Slabs of 6 and 1 planes, both chunked, with chunks and blocks
		// that end inside a row.
		{"rank5/slabs/chunked", 1, 1, 4, 7, 120, 100, 3, 3, 1, 1, 1, 2},
		// co·rows > gradChunk: slabs of 3 and 1 planes, the first with
		// K = 9000 > gradChunk columns, summed unchunked.
		{"rank5/slabs/unchunked", 1, 8, 40, 4, 50, 60, 3, 3, 1, 1, 1, 2},
	}
	for i, tc := range cases {
		g := kernelGeom(tc.n, tc.ci, tc.d, tc.h, tc.w, tc.kd, tc.k, tc.pd, tc.p, tc.s)
		g.co = tc.co
		if slabs := (g.do + g.slabDepth() - 1) / g.slabDepth(); slabs != tc.slabs {
			t.Fatalf("%s: %d slabs, want %d", tc.name, slabs, tc.slabs)
		}
		rng := NewRNG(int64(80 + i))
		xd := randTensor(rng, g.n*g.ci*g.d*g.h*g.w).Data
		yd := randTensor(rng, g.n*g.co*g.do*g.ho*g.wo).Data
		gw := randTensor(rng, g.co*g.rows()).Data
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/procs%d", tc.name, procs), func(t *testing.T) {
				defer tensor.SetParallelism(tensor.SetParallelism(procs))
				for _, lowered := range []bool{false, true} {
					want := append([]float64(nil), gw...)
					if lowered {
						lowerWeightGrad(want, yd, xd, g)
					} else {
						directWeightGrad(want, yd, xd, g)
					}
					got := append([]float64(nil), gw...)
					weightGradRows(got, yd, xd, nil, g, lowered)
					requireSameBits(t, fmt.Sprintf("lowered %v", lowered), got, want)
				}
			})
		}
	}
}

// A warm backward pass computes its weight gradient without allocating: no
// column matrix, no per-call partial sums. The one allocation allowed is
// the closure every row kernel hands the worker pool.
func TestWeightGradAllocatesNothing(t *testing.T) {
	// AllocsPerRun measures at GOMAXPROCS 1; keep the kernels on one
	// worker too, so no goroutine is counted.
	defer tensor.SetParallelism(tensor.SetParallelism(1))
	rng := NewRNG(77)
	c2 := NewConv2D(rng, "c", 3, 8, 3, 1, 1)
	c3 := NewConv3D(rng, "c", 2, 4, 3, 1, 1)
	x2, x3 := randTensor(rng, 2, 3, 16, 16), randTensor(rng, 1, 2, 32, 32, 32)
	g2, g3 := c2.geom(x2, nil), c3.geom(x3, nil)
	for _, tc := range []struct {
		name    string
		l       Layer
		w       *Param
		st      *convState
		x       *tensor.Tensor
		g       geom
		lowered bool
	}{
		{"Conv2D", c2, c2.W, &c2.convState, x2, g2, c2.useGEMM()},
		{"Conv3D/32³", c3, c3.W, &c3.convState, x3, g3, c3.useGEMM(g3.do * g3.ho * g3.wo)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.lowered {
				t.Fatal("the layer runs the direct order; this guard is for the lowered one")
			}
			SetBufferReuse(tc.l, true)
			grad := randTensor(rng, tc.l.Forward(tc.x, true).Shape()...)
			tc.l.Backward(grad)
			wg := func() { weightGradRows(tc.w.Grad.Data, grad.Data, tc.st.in.Data, nil, tc.g, tc.lowered) }
			if allocs := testing.AllocsPerRun(5, wg); allocs > 1 {
				t.Errorf("warm weight gradient allocates %v times, want ≤ 1", allocs)
			}
		})
	}
}
