package nn

import "mgdiffnet/internal/tensor"

// The three products every convolution layer is made of. With y on the
// written grid of g and x on the read grid:
//
//	correlate   y = W ⋆ x (+ bias)     conv forward,  transposed input gradient
//	adjoint     x = Wᵀ ⋆ y (+ bias)    conv input gradient,  transposed forward
//	weightGrad  W.Grad += y ⊗ x        both
//
// correlate and adjoint are one row kernel (rowProduct), run either way,
// and weightGrad a second one (weightGradRows); both read their operand
// rows where they lie. Only the lowered adjoint keeps a GEMM lowering, in
// im2col.go. Every correlate sum runs in the order cin → kz → ky → kx
// (adjoint: cout → kz → ky → kx), every weight-gradient sum over the
// written grid in the orders weightGradRows describes, and all of them skip
// taps that fall into the padding; the training benchmark pins the
// resulting bits.

func (s *convState) adjoint(xd, yd, bias []float64, w *Param, g geom, lower bool) {
	if lower {
		s.lowerAdjoint(xd, yd, bias, w, g)
	} else {
		adjointRows(xd, yd, w.Data.Data, bias, g)
	}
}

// correlateRows overwrites yd with W ⋆ x. A nil bias is zero; otherwise
// biasLast picks where it enters each sum: first, as the direct nest adds
// it, or after every tap, as the lowering y = W·im2col(x) + b does. Both
// orders are pinned (see Conv3D), and they are the only difference between
// the two: a lowered sum's extra padding terms are w·(+0), which cannot
// change a sum that starts at +0.
func correlateRows(yd, xd, wd, bias []float64, g geom, biasLast bool) {
	rowProduct(yd, xd, wd, bias, g, false, biasLast)
}

// adjointRows overwrites xd with Wᵀ ⋆ y in gather form: every read-grid
// element sums, after its bias (nil is zero), the written-grid elements
// whose window covers it.
func adjointRows(xd, yd, wd, bias []float64, g geom) {
	rowProduct(xd, yd, wd, bias, g, true, false)
}

// The row kernel splits its output into jobs: a block of up to rowBlock
// elements — whole rows, or a slice of one row wider than that — times up
// to four output channels, accumulated in a stack buffer and then written
// out. A block of several short rows spreads each tap's setup over all of
// them; the channel groups of a block are consecutive jobs, so its input
// rows stay in cache across them. Each channel's stretch of the buffer is
// padded so the four accumulator rows never sit a multiple of 4 KiB apart:
// accumulating straight into output rows a power-of-two volume apart
// stalls on store/load aliasing.
const (
	rowBlock  = 256
	rowStride = rowBlock + 8
)

// rowWorkUnit is how many multiply-adds count as one unit of work when
// jobs are shared among the kernel workers: ParallelRange runs fewer than
// 256 units serially.
const rowWorkUnit = 128

// rowProduct overwrites out with correlate, or with adjoint when
// transposed, reading the rows of in where they lie. Each output element
// sums its bias (first unless biasLast) and one term per kernel tap that
// reaches it, in the order input channel → kz → ky → kx; taps that fall
// into the padding are skipped.
func rowProduct(out, in, wd, bias []float64, g geom, transposed, biasLast bool) {
	s, kd, kh, kw, kvol := g.s, g.kd, g.kh, g.kw, g.kd*g.kh*g.kw
	// The output grid (o…) with oc channels, the input grid (i…) with ic,
	// their channel strides in W, and the terms an output element sums.
	od, oh, ow, oc, id, ih, iw, ic := g.do, g.ho, g.wo, g.co, g.d, g.h, g.w, g.ci
	oStep, iStep, terms := g.ci*kvol, kvol, g.ci*kvol
	if transposed {
		od, oh, ow, oc, id, ih, iw, ic = g.d, g.h, g.w, g.ci, g.do, g.ho, g.wo, g.co
		oStep, iStep = kvol, g.ci*kvol
		terms = ic * max(1, kd/s) * max(1, kh/s) * max(1, kw/s)
	}
	rows, rowsPer := g.n*od*oh, max(1, rowBlock/ow)
	colBlocks, chanBlocks := (ow+rowBlock-1)/rowBlock, (oc+3)/4
	jobs := (rows + rowsPer - 1) / rowsPer * colBlocks * chanBlocks
	u := max(1, min(rowsPer, rows)*min(ow, rowBlock)*4*terms/rowWorkUnit)

	tensor.ParallelRange(jobs*u, func(lo, hi int) {
		var acc [4 * rowStride]float64
		var wt [4]float64
		for j := (lo + u - 1) / u; j < (hi+u-1)/u; j++ {
			t, c0 := j/chanBlocks, j%chanBlocks*4
			r0, x0 := t/colBlocks*rowsPer, t%colBlocks*rowBlock
			r1, x1 := min(r0+rowsPer, rows), min(x0+rowBlock, ow)
			bw, nc := x1-x0, min(4, oc-c0)
			n0, z0, y0 := r0/(od*oh), r0/oh%od, r0%oh
			for c := 0; c < nc; c++ {
				b := 0.0
				if bias != nil && !biasLast {
					b = bias[c0+c]
				}
				fill(acc[c*rowStride:c*rowStride+(r1-r0)*bw], b)
			}
			for cin := 0; cin < ic; cin++ {
				for kz := 0; kz < kd; kz++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							// The output columns [x0, x1) the tap reaches, as
							// [lo, hi) on the strided side: out[off+j·sa] += w·in[src+j·sx].
							var lo, hi, off, src, sa, sx int
							if transposed {
								lo, hi = tapRange(iw, bw, s, g.pw+x0, kx)
								off, src, sa, sx = lo*s-g.pw+kx-x0, lo, s, 1
							} else {
								lo, hi = tapRange(ow, iw, s, g.pw, kx)
								lo, hi = max(lo, x0), min(hi, x1)
								off, src, sa, sx = lo-x0, lo*s-g.pw+kx, 1, s
							}
							if lo >= hi {
								continue
							}
							for c := 0; c < nc; c++ {
								wt[c] = wd[(c0+c)*oStep+cin*iStep+(kz*kh+ky)*kw+kx]
							}
							n, z, y := n0, z0, y0
							for r := r0; r < r1; r++ {
								iz, okz := tapRow(z, g.pd, kz, s, id, transposed)
								iy, oky := tapRow(y, g.ph, ky, s, ih, transposed)
								if okz && oky {
									row := (((n*ic+cin)*id+iz)*ih + iy) * iw
									maddRow(acc[:], (r-r0)*bw+off, nc, &wt, in[row+src:], hi-lo, sa, sx)
								}
								n, z, y = nextRow(n, z, y, od, oh)
							}
						}
					}
				}
			}
			for c := 0; c < nc; c++ {
				b := 0.0
				if bias != nil && biasLast {
					b = bias[c0+c]
				}
				n, z, y := n0, z0, y0
				for r := r0; r < r1; r++ {
					row := out[(((n*oc+c0+c)*od+z)*oh+y)*ow+x0:][:bw]
					for i, v := range acc[c*rowStride+(r-r0)*bw:][:len(row)] {
						row[i] = v + b
					}
					n, z, y = nextRow(n, z, y, od, oh)
				}
			}
		}
	})
}

// tapRow returns the input index that kernel tap k joins to output index o
// along one axis, if it lies in [0, n): o·s − p + k, or for the adjoint the
// i with i·s − p + k = o.
func tapRow(o, p, k, s, n int, transposed bool) (int, bool) {
	i := o*s - p + k
	if transposed {
		if (o+p-k)%s != 0 {
			return 0, false
		}
		i = (o + p - k) / s
	}
	return i, i >= 0 && i < n
}

// nextRow advances the row index (n, z, y) of a grid with nz planes of ny
// rows.
func nextRow(n, z, y, nz, ny int) (int, int, int) {
	if y++; y < ny {
		return n, z, y
	}
	if z++; z < nz {
		return n, z, 0
	}
	return n + 1, 0, 0
}

// maddRow adds wt[c]·x[j·sx] into acc[c·rowStride + off + j·sa] for j < n
// and each of the nc ≤ 4 channels.
func maddRow(acc []float64, off, nc int, wt *[4]float64, x []float64, n, sa, sx int) {
	w0, w1, w2, w3 := wt[0], wt[1], wt[2], wt[3]
	switch {
	case nc == 4 && sa == 1 && sx == 1:
		x = x[:n]
		a0, a1 := acc[off:][:len(x)], acc[off+rowStride:][:len(x)]
		a2, a3 := acc[off+2*rowStride:][:len(x)], acc[off+3*rowStride:][:len(x)]
		for j, v := range x {
			a0[j] += w0 * v
			a1[j] += w1 * v
			a2[j] += w2 * v
			a3[j] += w3 * v
		}
	case nc == 4:
		a := acc[off:]
		for j := 0; j < n; j++ {
			v, i := x[j*sx], j*sa
			a[i] += w0 * v
			a[i+rowStride] += w1 * v
			a[i+2*rowStride] += w2 * v
			a[i+3*rowStride] += w3 * v
		}
	default:
		for c := 0; c < nc; c++ {
			a := acc[c*rowStride+off:]
			for j := 0; j < n; j++ {
				a[j*sa] += wt[c] * x[j*sx]
			}
		}
	}
}

func fill(a []float64, v float64) {
	for i := range a {
		a[i] = v
	}
}

// The lowered weight-gradient order is the one the GEMM product
// y·im2col(x)ᵀ summed in (tensor.MatMulTransBInto): column blocks of
// gradBlock, and chunks of at least gradChunk columns when the product is
// small. Both are pinned with the training bits. gradTaps bounds the kx taps
// one weight-gradient job owns.
const (
	gradBlock = 64
	gradChunk = 8192
	gradTaps  = 8
)

// weightGradRows adds y ⊗ x into gw: element (co, ci, kz, ky, kx) gains the
// sum, over the written-grid columns (bn, oz, oy, ox), of y[bn, co, oz, oy,
// ox] times the x element the tap joins that column to. Taps that fall into
// the padding are skipped.
//
// The direct order sums each element from +0 over bn → oz → oy → ox. The
// lowered order is the GEMM's: the pass is cut into depth slabs of
// slabDepth() planes, taken in order, and a slab's K columns, numbered
// bn → oz → oy → ox, are summed in blocks of gradBlock, each from +0. When
// the product is small (co·rows ≤ gradChunk) and K > gradChunk, the slab is
// cut into chunks of max(gradChunk, ⌈K/256⌉) columns: blocks restart at each
// chunk and their sums fold into a per-chunk partial from +0, and the
// partials into the total; otherwise the block sums fold into the total
// directly. The total runs from +0 across all slabs. Either order adds its
// total into gw once. The GEMM added y·(+0) for a padding tap, which cannot
// change a sum started at +0: such a sum is never −0.
//
// A job owns up to four output channels × one (cin, kz, ky) × up to
// gradTaps kx taps, and every (channel, tap) pair is an accumulator chain of
// its own: one x load feeds four multiply-adds, and the chains hide the add
// latency. The jobs depend on the shape only and own whole gradient
// elements, so the bits do not depend on the worker count.
func weightGradRows(gw, yd, xd []float64, g geom, lowered bool) {
	n, ci, co, s := g.n, g.ci, g.co, g.s
	d, h, w, do, ho, wo := g.d, g.h, g.w, g.do, g.ho, g.wo
	kd, kh, kw := g.kd, g.kh, g.kw
	planes := do
	if lowered {
		planes = g.slabDepth()
	}
	small := co*g.rows() <= gradChunk
	chanBlocks, tapBlocks := (co+3)/4, (kw+gradTaps-1)/gradTaps
	jobs := chanBlocks * ci * kd * kh * tapBlocks
	u := max(1, n*do*ho*wo*4*min(kw, gradTaps)/rowWorkUnit)

	tensor.ParallelRange(jobs*u, func(lo, hi int) {
		var blk, part, tot [4 * gradTaps]float64
		var tapLo, tapHi [gradTaps]int
		for j := (lo + u - 1) / u; j < (hi+u-1)/u; j++ {
			kx0 := j % tapBlocks * gradTaps
			ky, kz := j/tapBlocks%kh, j/(tapBlocks*kh)%kd
			cin, c0 := j/(tapBlocks*kh*kd)%ci, j/(tapBlocks*kh*kd*ci)*4
			nc, nt := min(4, co-c0), min(gradTaps, kw-kx0)
			for i := 0; i < nt; i++ {
				tapLo[i], tapHi[i] = tapRange(wo, w, s, g.pw, kx0+i)
			}
			chains := 4 * nt
			clear(tot[:chains])
			for z0 := 0; z0 < do; z0 += planes {
				z1 := min(z0+planes, do)
				k := n * (z1 - z0) * ho * wo
				block, chunk, chunked := k, k, false
				if lowered {
					block = gradBlock
					if small && k > gradChunk {
						chunk, chunked = max(gradChunk, (k+255)/256), true
					}
				}
				sums := tot[:chains]
				if chunked {
					sums = part[:chains]
					clear(sums)
				}
				blockEnd, chunkEnd, q := min(block, chunk), chunk, 0
				for bn := 0; bn < n; bn++ {
					for oz := z0; oz < z1; oz++ {
						iz := oz*s - g.pd + kz
						for oy := 0; oy < ho; oy++ {
							iy := oy*s - g.ph + ky
							inside := iz >= 0 && iz < d && iy >= 0 && iy < h
							yRow := (((bn*co+c0)*do+oz)*ho + oy) * wo
							xRow := (((bn*ci+cin)*d+iz)*h+iy)*w - g.pw + kx0
							// [a, b) is the stretch of this row inside one block.
							for a := 0; a < wo; {
								b := min(wo, blockEnd-q)
								for i := 0; inside && i < nt; i++ {
									if lo, hi := max(tapLo[i], a), min(tapHi[i], b); lo < hi {
										maddCols(blk[4*i:4*i+4], nc, yd[yRow+lo:], do*ho*wo, xd[xRow+lo*s+i:], hi-lo, s)
									}
								}
								a = b
								if q+a < blockEnd {
									continue
								}
								fold(sums, blk[:chains])
								if blockEnd == chunkEnd {
									if chunked {
										fold(tot[:chains], sums)
									}
									chunkEnd = min(chunkEnd+chunk, k)
								}
								blockEnd = min(blockEnd+block, chunkEnd)
							}
							q += wo
						}
					}
				}
			}
			for i := 0; i < nt; i++ {
				for c := 0; c < nc; c++ {
					gw[(((c0+c)*ci+cin)*kd+kz)*kh*kw+ky*kw+kx0+i] += tot[4*i+c]
				}
			}
		}
	})
}

// maddCols adds y[c·cs + j]·x[j·sx] into acc[c] for j < n and each of the
// nc ≤ 4 channels, one chain per channel in ascending j.
func maddCols(acc []float64, nc int, y []float64, cs int, x []float64, n, sx int) {
	if nc < 4 {
		for c := 0; c < nc; c++ {
			a := acc[c]
			for j, v := range y[c*cs:][:n] {
				a += v * x[j*sx]
			}
			acc[c] = a
		}
		return
	}
	a0, a1, a2, a3 := acc[0], acc[1], acc[2], acc[3]
	y0, y1, y2, y3 := y[:n], y[cs:][:n], y[2*cs:][:n], y[3*cs:][:n]
	if sx == 1 {
		for j, v := range x[:n] {
			a0 += y0[j] * v
			a1 += y1[j] * v
			a2 += y2[j] * v
			a3 += y3[j] * v
		}
	} else {
		for j := range y0 {
			v := x[j*sx]
			a0 += y0[j] * v
			a1 += y1[j] * v
			a2 += y2[j] * v
			a3 += y3[j] * v
		}
	}
	acc[0], acc[1], acc[2], acc[3] = a0, a1, a2, a3
}

// fold adds src into dst and zeroes src.
func fold(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
		src[i] = 0
	}
}

// biasGrad adds the per-channel sums of gd — n samples of len(gb) channels
// of vol elements — into gb, chunk elements of every sample at a time.
func biasGrad(gb, gd []float64, n, vol, chunk int) {
	c := len(gb)
	for ch := range gb {
		for lo := 0; lo < vol; lo += chunk {
			hi := min(lo+chunk, vol)
			sum := 0.0
			for bn := 0; bn < n; bn++ {
				base := (bn*c + ch) * vol
				for _, v := range gd[base+lo : base+hi] {
					sum += v
				}
			}
			gb[ch] += sum
		}
	}
}
