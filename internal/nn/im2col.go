package nn

import "mgdiffnet/internal/tensor"

// gemmBuf is a persistently held scratch matrix for the GEMM convolution
// lowering: backing storage grown on demand plus a cached shaped view, so
// steady-state passes with stable shapes allocate nothing. Reuse across
// passes is also what keeps the column slabs cache-resident instead of
// re-faulting fresh pages every forward/backward.
type gemmBuf struct {
	data []float64
	view *tensor.Tensor
}

// get returns a [rows, cols] view over the scratch, growing the backing
// allocation only when the request exceeds it (the short final depth slab
// of a pass reuses the full-slab buffer). Fresh storage is already zero; a
// reused view is zeroed on request. Pass zero=false only when every element
// is overwritten before it is read; accumulation targets of the *Into GEMM
// kernels and the padding-skipping im2col fill need zero=true.
func (b *gemmBuf) get(rows, cols int, zero bool) *tensor.Tensor {
	need := rows * cols
	fresh := false
	if cap(b.data) < need {
		b.data = make([]float64, need)
		b.view = nil
		fresh = true
	}
	if b.view == nil || !b.view.ShapeIs(rows, cols) {
		b.view = tensor.FromSlice(b.data[:need], rows, cols)
	}
	if zero && !fresh {
		b.view.Zero()
	}
	return b.view
}

// paramMat returns a cached [rows, cols] matrix view over data,
// re-pointing the cached view when the backing slice moved (nn.Arena
// re-bases parameter storage after construction).
func paramMat(view **tensor.Tensor, data []float64, rows, cols int) *tensor.Tensor {
	if *view == nil {
		*view = tensor.FromSlice(data, rows, cols)
	} else {
		(*view).Rebase(data)
	}
	return *view
}

// Im2Col2D unrolls the sliding windows of an NCHW input into a
// [Cin·K·K, N·Ho·Wo] matrix so that convolution becomes one GEMM — the
// lowering used by most production deep-learning engines. Out-of-bounds
// (padding) positions contribute zeros.
func Im2Col2D(x *tensor.Tensor, k, stride, pad int) *tensor.Tensor {
	g := kernelGeom(x.Dim(0), x.Dim(1), 1, x.Dim(2), x.Dim(3), 1, k, 0, pad, stride)
	cols := tensor.New(g.rows(), g.n*g.ho*g.wo)
	im2col(cols.Data, x.Data, g, 0, 1)
	return cols
}

// Col2Im2D is the adjoint of Im2Col2D: it scatters a [Cin·K·K, N·Ho·Wo]
// column matrix back onto the NCHW image grid, summing overlapping
// contributions. It turns the GEMM gradient Wᵀ·gradOut into the input
// gradient of the convolution.
func Col2Im2D(cols *tensor.Tensor, n, ci, h, w, k, stride, pad int) *tensor.Tensor {
	out := tensor.New(n, ci, h, w)
	col2im(out.Data, cols.Data, kernelGeom(n, ci, 1, h, w, 1, k, 0, pad, stride), 0, 1)
	return out
}

// Im2Col3D unrolls the sliding windows of an NCDHW input into a
// [Cin·K³, N·Do·Ho·Wo] matrix so that volumetric convolution becomes one
// GEMM. The layers do not materialize this matrix whole: they stream depth
// slabs of it through a cache-resident scratch buffer (see im2col). The
// full-matrix form exists for its algebraic contract — tests pair it with
// Col2Im3D as an adjoint — and for callers that want the classical
// one-shot lowering.
func Im2Col3D(x *tensor.Tensor, k, stride, pad int) *tensor.Tensor {
	g := kernelGeom(x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3), x.Dim(4), k, k, pad, pad, stride)
	cols := tensor.New(g.rows(), g.n*g.do*g.ho*g.wo)
	im2col(cols.Data, x.Data, g, 0, g.do)
	return cols
}

// Col2Im3D is the adjoint of Im2Col3D: it scatters a [Cin·K³, N·Do·Ho·Wo]
// column matrix back onto the NCDHW voxel grid, summing overlapping
// contributions.
func Col2Im3D(cols *tensor.Tensor, n, ci, d, h, w, k, stride, pad int) *tensor.Tensor {
	g := kernelGeom(n, ci, d, h, w, k, k, pad, pad, stride)
	out := tensor.New(n, ci, d, h, w)
	col2im(out.Data, cols.Data, g, 0, g.do)
	return out
}

// rows is the height of the column matrix: one row per (cin, kz, ky, kx).
func (g geom) rows() int { return g.ci * g.kd * g.kh * g.kw }

// convSlabElems bounds the per-slab column matrix at 2²¹ float64s
// (16 MiB): small enough to sit in a last-level cache slice while the GEMM
// streams it repeatedly, large enough that slab setup is amortized. Memory
// use of the GEMM path is O(this bound), not O(volume) — which is why
// kernel selection never needs to consider batch size or available memory.
const convSlabElems = 1 << 21

// slabDepth returns how many written-grid z-planes fit one column slab.
// At rank 4 the single plane is the whole pass.
func (g geom) slabDepth() int {
	return max(1, min(g.do, convSlabElems/(g.rows()*g.n*g.ho*g.wo)))
}

// im2col fills a pre-zeroed [rows, N·(ozHi−ozLo)·Ho·Wo] matrix with the
// unrolled windows whose output depth lies in [ozLo, ozHi). Slabbing is
// what keeps the lowering cache-resident on megavoxel volumes: the full
// column matrix of a 64³ pass runs to hundreds of megabytes, while a slab
// reused across iterations stays in the last-level cache. For stride 1 the
// innermost transfer is a single contiguous copy per output row.
func im2col(cd, xd []float64, g geom, ozLo, ozHi int) {
	n, ci, d, h, w := g.n, g.ci, g.d, g.h, g.w
	ho, wo := g.ho, g.wo
	kd, kh, kw := g.kd, g.kh, g.kw
	pd, ph, pw, stride := g.pd, g.ph, g.pw, g.s
	dz := ozHi - ozLo
	kvol := kd * kh * kw
	colW := n * dz * ho * wo

	// One job per (unrolled row, sample, output z-plane): the job count
	// scales with the volume, not just the channel count, so the unroll
	// fans out even at the paper's small Cin. Each job owns a disjoint
	// stretch of its column row — race-free by construction.
	tensor.ParallelFor(ci*kvol*n*dz, func(job int) {
		row := job / (n * dz)
		rem := job % (n * dz)
		bn := rem / dz
		ozl := rem % dz
		cin := row / kvol
		krem := row % kvol
		kz := krem / (kh * kw)
		ky := (krem / kw) % kh
		kx := krem % kw

		iz := (ozLo+ozl)*stride - pd + kz
		if iz < 0 || iz >= d {
			return // zeros already there
		}
		base := row * colW
		xBase := (bn*ci+cin)*d*h*w + iz*h*w
		oxLo, oxHi := tapRange(wo, w, stride, pw, kx)
		for oy := 0; oy < ho; oy++ {
			iy := oy*stride - ph + ky
			if iy < 0 || iy >= h {
				continue
			}
			outRow := base + ((bn*dz+ozl)*ho+oy)*wo
			src := xBase + iy*w - pw + kx
			if stride == 1 {
				copy(cd[outRow+oxLo:outRow+oxHi], xd[src+oxLo:src+oxHi])
				continue
			}
			for ox := oxLo; ox < oxHi; ox++ {
				cd[outRow+ox] = xd[src+ox*stride]
			}
		}
	})
}

// tapRange returns the written-grid columns [lo, hi), possibly empty, whose
// kernel tap kx lands inside a read-grid row of width w:
// 0 ≤ ox·s − p + kx < w.
func tapRange(wo, w, s, p, kx int) (lo, hi int) {
	lo = max(0, (p-kx+s-1)/s)
	return lo, max(lo, min(wo, (w+p-kx+s-1)/s))
}

// col2im adds the contributions of a [rows, N·(ozHi−ozLo)·Ho·Wo] column
// slab onto the read grid. Slabs from consecutive depth ranges overlap
// there (the receptive fields straddle slab boundaries); the += makes the
// slabbed pass sum them exactly like a one-shot scatter.
//
// The loop is organized in gather form — one job per destination row
// (sample, channel, iz, iy) — so every worker owns disjoint output rows
// and the job count scales with the volume rather than the channel count.
// Per destination element the (kz, ky, kx, ox) accumulation order is
// fixed, so results are independent of the worker count and of the batch.
func col2im(od, cd []float64, g geom, ozLo, ozHi int) {
	n, ci, d, h, w := g.n, g.ci, g.d, g.h, g.w
	ho, wo := g.ho, g.wo
	kd, kh, kw := g.kd, g.kh, g.kw
	pd, ph, pw, stride := g.pd, g.ph, g.pw, g.s
	dz := ozHi - ozLo
	colW := n * dz * ho * wo
	tensor.ParallelFor(n*ci*d*h, func(job int) {
		iy := job % h
		rest := job / h
		iz := rest % d
		rest /= d
		cin := rest % ci
		bn := rest / ci
		dstRow := ((bn*ci+cin)*d+iz)*h*w + iy*w
		for kz := 0; kz < kd; kz++ {
			ozNum := iz + pd - kz
			if ozNum < 0 || ozNum%stride != 0 {
				continue
			}
			oz := ozNum / stride
			if oz < ozLo || oz >= ozHi {
				continue
			}
			for ky := 0; ky < kh; ky++ {
				oyNum := iy + ph - ky
				if oyNum < 0 || oyNum%stride != 0 {
					continue
				}
				oy := oyNum / stride
				if oy >= ho {
					continue
				}
				for kx := 0; kx < kw; kx++ {
					row := ((cin*kd+kz)*kh+ky)*kw + kx
					srcRow := row*colW + ((bn*dz+oz-ozLo)*ho+oy)*wo
					oxLo, oxHi := tapRange(wo, w, stride, pw, kx)
					dst := dstRow - pw + kx + oxLo*stride
					for _, v := range cd[srcRow+oxLo : srcRow+oxHi] {
						od[dst] += v
						dst += stride
					}
				}
			}
		}
	})
}

// chanMajor reorders depth planes [z0, z1) of the written-grid tensor yd
// ([N, Cout, Do·Ho·Wo]) into the [Cout, N·(z1−z0)·Ho·Wo] matrix the GEMM
// kernels contract over, overwriting every element of it.
func (s *convState) chanMajor(yd []float64, g geom, z0, z1 int) *tensor.Tensor {
	n, co := g.n, g.co
	plane := g.ho * g.wo
	slabVol := (z1 - z0) * plane
	yMat := s.prodBuf.get(co, n*slabVol, false)
	for bn := 0; bn < n; bn++ {
		for oc := 0; oc < co; oc++ {
			src := ((bn*co+oc)*g.do + z0) * plane
			dst := (oc*n + bn) * slabVol
			copy(yMat.Data[dst:dst+slabVol], yd[src:src+slabVol])
		}
	}
	return yMat
}

// lowerCorrelate is correlate as y = W·im2col(x) + bias, streamed over
// depth slabs. Each output element accumulates its terms in a fixed
// ascending order (tensor.MatMulInto), so per-sample results do not depend
// on the batch.
func (s *convState) lowerCorrelate(yd, xd, bias []float64, w *Param, g geom) {
	n, co, rows := g.n, g.co, g.rows()
	plane := g.ho * g.wo
	wMat := paramMat(&s.wMatView, w.Data.Data, co, rows)
	dz := g.slabDepth()
	for z0 := 0; z0 < g.do; z0 += dz {
		z1 := min(z0+dz, g.do)
		slabVol := (z1 - z0) * plane
		cols := s.colsBuf.get(rows, n*slabVol, true)
		im2col(cols.Data, xd, g, z0, z1)
		prod := s.prodBuf.get(co, n*slabVol, true)
		tensor.MatMulInto(wMat, cols, prod) // [Cout, N·dz·Ho·Wo]

		// Scatter the slab product into NCDHW order and add the bias.
		pd := prod.Data
		tensor.ParallelFor(co, func(oc int) {
			b := 0.0
			if bias != nil {
				b = bias[oc]
			}
			for bn := 0; bn < n; bn++ {
				src := (oc*n + bn) * slabVol
				dst := ((bn*co+oc)*g.do + z0) * plane
				row := yd[dst : dst+slabVol]
				prow := pd[src : src+slabVol]
				for i := range row {
					row[i] = prow[i] + b
				}
			}
		})
	}
}

// lowerAdjoint is adjoint as x = col2im(Wᵀ·y) + bias over the same depth
// slabs. The transposed product runs through tensor.MatMulTransAInto, so
// no explicit transpose is ever materialized.
func (s *convState) lowerAdjoint(xd, yd, bias []float64, w *Param, g geom) {
	n, ci, rows := g.n, g.ci, g.rows()
	wMat := paramMat(&s.wMatView, w.Data.Data, g.co, rows)
	clear(xd) // col2im adds into it
	dz := g.slabDepth()
	for z0 := 0; z0 < g.do; z0 += dz {
		z1 := min(z0+dz, g.do)
		yMat := s.chanMajor(yd, g, z0, z1)
		cols := s.colsBuf.get(rows, yMat.Dim(1), true)
		tensor.MatMulTransAInto(wMat, yMat, cols)
		col2im(xd, cols.Data, g, z0, z1)
	}
	if bias == nil {
		return
	}
	vol := g.d * g.h * g.w
	tensor.ParallelFor(n*ci, func(job int) {
		b := bias[job%ci]
		row := xd[job*vol : (job+1)*vol]
		for i := range row {
			row[i] += b
		}
	})
}

// lowerWeightGrad is weightGrad as W.Grad += y·im2col(x)ᵀ. The product
// accumulates across slabs in a scratch matrix that is added to W.Grad
// once, through tensor.MatMulTransBInto.
func (s *convState) lowerWeightGrad(yd, xd []float64, w *Param, g geom) {
	co, rows := g.co, g.rows()
	gw := s.gwBuf.get(co, rows, true)
	dz := g.slabDepth()
	for z0 := 0; z0 < g.do; z0 += dz {
		z1 := min(z0+dz, g.do)
		yMat := s.chanMajor(yd, g, z0, z1)
		cols := s.colsBuf.get(rows, yMat.Dim(1), true)
		im2col(cols.Data, xd, g, z0, z1)
		tensor.MatMulTransBInto(yMat, cols, gw)
	}
	paramMat(&s.gwView, w.Grad.Data, co, rows).Add(gw)
}
