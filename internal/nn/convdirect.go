package nn

import (
	"sync"

	"mgdiffnet/internal/tensor"
)

// The three products every convolution layer is made of. With y on the
// written grid of g and x on the read grid:
//
//	correlate   y = W ⋆ x (+ bias)     conv forward,  transposed input gradient
//	adjoint     x = Wᵀ ⋆ y (+ bias)    conv input gradient,  transposed forward
//	weightGrad  W.Grad += y ⊗ x        both
//
// correlate and adjoint are one row kernel (rowProduct), run either way,
// and weightGrad a second one (weightGradRows). Only the lowered adjoint
// keeps a GEMM lowering, in im2col.go. Every correlate sum runs in the order
// cin → kz → ky → kx (adjoint: cout → kz → ky → kx), and every
// weight-gradient sum over the written grid in the orders weightGradRows
// describes; the training benchmark pins the resulting bits.
//
// At stride 1, which is every convolution of the U-Net but the stride-2
// up-convolutions, rowProduct stages its input. A job copies, per input
// channel, the input rows its block of output rows reads into per-worker
// scratch, each padded with zero columns (the convolution's padding, and
// then up to a multiple of 4) to a width W that holds every column any tap
// reads. Its accumulator rows have the same width, so input and
// accumulator line up and every tap is one offset: the tap adds w times the
// staged block, shifted by the tap, to the whole accumulator block in one
// contiguous call, with no clamp at the edges. The columns past the output
// width, and the rows between two planes of a block, accumulate garbage
// that the write-out drops. On amd64 with AVX one kernel call runs three
// kx taps, loading and storing the accumulators once for the three. The
// strided branch reads input rows where they lie and clamps each tap to the
// columns and rows it reaches (tapRange, tapRow).
//
// Why the bits hold. A staged sum also adds the padding terms that the
// strided branch and the reference nests skip: w·(+0), which is ±0 for a
// finite w. Adding ±0 changes no sum but a −0 one, and a sum that starts
// at +0 never becomes −0 under round-to-nearest (x + (−x) is +0). A sum
// that starts at a −0 bias may, but the write-out adds +0 to every
// bias-first sum, so an exactly zero result is +0 either way. So for finite
// weights the staged kernel gives the bits of skipping the padding. A
// non-finite weight makes a padding term NaN (∞·0, NaN·0), and every output
// element sums every tap of the kernel: at stride 1 the channel that weight
// feeds is non-finite throughout, where skipping the padding leaves the
// elements whose window that tap leaves finite.
//
// On amd64 with AVX, maddRow's stride-1 loops run four columns per
// instruction (rowVec): the four-channel kernel for full channel groups,
// the one-channel kernel per channel otherwise, and the three-tap kernel
// for each kx triple of a staged row. Each lane is one VMULPD and one
// VADDPD per term in the Go loop's operand order, never a fused
// multiply-add, so its bits are the Go loop's, which every other CPU runs.
// The Go loops write each product as float64(w·x), which no compiler fuses.

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

// The row kernel splits its output into jobs of up to four output channels
// times a block of up to rowBlock accumulator elements per channel, held in
// pooled scratch and then written out. The channel groups of a block are
// consecutive jobs, so its input rows stay in cache across them. Each
// channel's stretch of the accumulator is padded so the four accumulator
// rows never sit a multiple of 4 KiB apart: accumulating into rows a
// power-of-two volume apart stalls on store/load aliasing.
const (
	rowBlock  = 1024
	rowStride = rowBlock + 8
)

// rowScratch is one worker's accumulator block, weight gather and staged
// input rows, pooled as one allocation because passing them to the vector
// kernels, function values, moves them to the heap. stage holds every
// staged block of a kernel up to 3 taps tall (at most rowBlock accumulator
// elements plus two halo rows of at most rowBlock columns, plus kw−1).
type rowScratch struct {
	acc   [4 * rowStride]float64
	wt    [4]float64
	wt3   [12]float64
	stage [4 * rowBlock]float64
}

var rowScratchPool = sync.Pool{New: func() any { return new(rowScratch) }}

// rowWorkUnit is how many multiply-adds count as one unit of work when
// jobs are shared among the kernel workers: ParallelRange runs fewer than
// 256 units serially.
const rowWorkUnit = 128

// rowProduct overwrites out with correlate, or with adjoint when
// transposed. Each output element sums its bias (first unless biasLast) and
// one term per kernel tap that reaches it, in the order input channel → kz
// → ky → kx.
func rowProduct(out, in, wd, bias []float64, g geom, transposed, biasLast bool) {
	kvol := g.kd * g.kh * g.kw
	p := rowPass{out: out, in: in, wd: wd, bias: bias, g: g, transposed: transposed, biasLast: biasLast,
		od: g.do, oh: g.ho, ow: g.wo, oc: g.co, id: g.d, ih: g.h, iw: g.w, ic: g.ci, oStep: g.ci * kvol, iStep: kvol}
	if transposed {
		p.od, p.oh, p.ow, p.oc, p.id, p.ih, p.iw, p.ic = g.d, g.h, g.w, g.ci, g.do, g.ho, g.wo, g.co
		p.oStep, p.iStep = kvol, g.ci*kvol
	}
	if g.s == 1 {
		p.staged()
	} else {
		p.strided()
	}
}

// rowPass is one rowProduct call: its operands, the output grid (o…) with
// oc channels, the input grid (i…) with ic, and their channel strides in
// the weights.
type rowPass struct {
	out, in, wd, bias    []float64
	g                    geom
	transposed, biasLast bool
	od, oh, ow, oc       int
	id, ih, iw, ic       int
	oStep, iStep         int
}

// initAcc sets the first span elements of each of the nc accumulator rows
// to the bias of its channel, or to +0 when the bias comes last.
func (p *rowPass) initAcc(acc []float64, c0, nc, span int) {
	for c := 0; c < nc; c++ {
		b := 0.0
		if p.bias != nil && !p.biasLast {
			b = p.bias[c0+c]
		}
		a := acc[c*rowStride:][:span]
		for i := range a {
			a[i] = b
		}
	}
}

// lastBias is what the write-out adds to channel c's sums: its bias when
// the bias comes last, else +0.
func (p *rowPass) lastBias(c int) float64 {
	if p.bias != nil && p.biasLast {
		return p.bias[c]
	}
	return 0
}

// taps returns the weights of taps (cin, kz, ky, ·) of output channel c0
// on; channel c0+c's start c·oStep further.
func (p *rowPass) taps(c0, cin, kz, ky int) []float64 {
	return p.wd[c0*p.oStep+cin*p.iStep+(kz*p.g.kh+ky)*p.g.kw:]
}

// gather copies the weights of tap kx of the nc channels from w, laid out
// as taps returns them, into wt.
func gather(wt []float64, w []float64, step, nc, kx int) {
	for c := 0; c < nc; c++ {
		wt[c] = w[c*step+kx]
	}
}

// staged runs a stride-1 pass over zero-padded staged input rows.
//
// A job owns the output columns [x0, x0+cols) of the rows [y0, y0+seg) in
// each of the planes [q0, q1) — plane q is sample q/od, depth q%od. The
// staged block for one (cin, kz) holds, per plane, the seg+kh−1 input rows
// those rows read, each as the W input columns from x0−lx on, zero outside
// the input grid; a plane whose input plane lies outside is all zero. Its
// accumulator block holds, per plane, seg rows of W columns, plus kh−1
// garbage rows opposite the next plane's halo. A staged-side tap (tz, ty,
// tx) — the weight tap itself, or for the adjoint its mirror image
// (kd−1−kz, kh−1−ky, kw−1−kx) — joins accumulator element i to staged
// element i + ty·W + tx in every row at once. Rows wider than the
// accumulator block are cut into column blocks, each staging its kw−1 halo
// columns; short planes are packed into one block, tall ones cut into
// pieces of equal height.
func (p rowPass) staged() {
	g, oh, ow := p.g, p.oh, p.ow
	kd, kh, kw := g.kd, g.kh, g.kw
	l := stagedPass{rowPass: p, lz: g.pd, ly: g.ph, lx: g.pw}
	if p.transposed {
		l.lz, l.ly, l.lx = kd-1-g.pd, kh-1-g.ph, kw-1-g.pw
	}
	l.colBlocks = ceilDiv(ow, rowBlock-kw+1)
	l.cols = ceilDiv(ow, l.colBlocks)
	l.colBlocks = ceilDiv(ow, l.cols)
	l.W = (l.cols + kw + 2) &^ 3
	rowsMax := rowBlock / l.W
	l.planes, l.perJob, l.seg = g.n*p.od, 1, oh
	if oh <= rowsMax {
		l.perJob = min(l.planes, (rowsMax+kh-1)/(oh+kh-1))
	} else {
		l.seg = ceilDiv(oh, ceilDiv(oh, rowsMax))
	}
	l.perJob = ceilDiv(l.planes, ceilDiv(l.planes, l.perJob))
	l.pieces, l.chanBlocks = ceilDiv(oh, l.seg), (p.oc+3)/4
	jobs := ceilDiv(l.planes, l.perJob) * l.pieces * l.colBlocks * l.chanBlocks
	l.u = max(1, ((l.perJob-1)*(l.seg+kh-1)+l.seg)*l.W*4*p.ic*kd*kh*kw/rowWorkUnit)
	// A method value of a value receiver carries its copy of l: the pass
	// allocates that one closure, where a func literal would also move l
	// to the heap.
	tensor.ParallelRange(jobs*l.u, l.run)
}

// stagedPass is a staged pass and its job layout. (lz, ly, lx) is how far
// the input grid starts before the output grid: tap (tz, ty, tx) joins
// output (z, y, x) to input (z−lz+tz, y−ly+ty, x−lx+tx).
type stagedPass struct {
	rowPass
	lz, ly, lx                  int
	cols, colBlocks, W          int
	planes, perJob, seg, pieces int
	chanBlocks, u               int
}

// run runs the jobs of work units [lo, hi).
func (l stagedPass) run(lo, hi int) {
	p, od, oh, ow, oc := &l.rowPass, l.od, l.oh, l.ow, l.oc
	kd, kh, kw, W, u := l.g.kd, l.g.kh, l.g.kw, l.W, l.u
	sc := rowScratchPool.Get().(*rowScratch)
	defer rowScratchPool.Put(sc)
	acc, wt := sc.acc[:], &sc.wt
	for j := (lo + u - 1) / u; j < (hi+u-1)/u; j++ {
		t, c0 := j/l.chanBlocks, j%l.chanBlocks*4
		t, x0 := t/l.colBlocks, t%l.colBlocks*l.cols
		q0, y0 := t/l.pieces*l.perJob, t%l.pieces*l.seg
		q1, y1, x1 := min(q0+l.perJob, l.planes), min(y0+l.seg, oh), min(x0+l.cols, ow)
		nc, pitch := min(4, oc-c0), y1-y0+kh-1
		span := ((q1-q0)*pitch - kh + 1) * W
		stage := sc.stage[:]
		if n := (q1-q0)*pitch*W + kw - 1; n > len(stage) {
			stage = make([]float64, n) // a kernel taller than 3 over rows near rowBlock wide
		}
		p.initAcc(acc, c0, nc, span)
		for cin := 0; cin < p.ic; cin++ {
			for kz := 0; kz < kd; kz++ {
				tz := kz
				if p.transposed {
					tz = kd - 1 - kz
				}
				p.stage(stage, cin, tz-l.lz, y0-l.ly, x0-l.lx, q0, q1, pitch, W)
				for ky := 0; ky < kh; ky++ {
					ty, w := ky, p.taps(c0, cin, kz, ky)
					if p.transposed {
						ty = kh - 1 - ky
					}
					kx := 0
					for ; nc == 4 && rowVec != nil && kx+3 <= kw; kx += 3 {
						tx := kx
						if p.transposed {
							tx = kw - 3 - kx
						}
						for i := 0; i < 3; i++ {
							gather(sc.wt3[4*i:], w, p.oStep, nc, kx+i)
						}
						rowVec.madd4x3(acc[:3*rowStride+span], &sc.wt3, stage[ty*W+tx:][:span+2], p.transposed)
					}
					for ; kx < kw; kx++ {
						tx := kx
						if p.transposed {
							tx = kw - 1 - kx
						}
						gather(wt[:], w, p.oStep, nc, kx)
						maddRow(acc, 0, nc, wt, stage[ty*W+tx:], span, 1, 1)
					}
				}
			}
		}
		for c := 0; c < nc; c++ {
			b := p.lastBias(c0 + c)
			for q := q0; q < q1; q++ {
				for y := y0; y < y1; y++ {
					row := p.out[(((q/od*oc+c0+c)*od+q%od)*oh+y)*ow+x0:][:x1-x0]
					for i, v := range acc[c*rowStride+((q-q0)*pitch+y-y0)*W:][:len(row)] {
						row[i] = v + b
					}
				}
			}
		}
	}
}

// stage copies input channel cin into the staged block of planes [q0, q1):
// per plane q at depth z, pitch rows of W columns from input row dy and
// input column dx of input plane z+dz on, zero outside the input grid, then
// kw−1 zeros for the last taps' overreach.
func (p *rowPass) stage(stage []float64, cin, dz, dy, dx, q0, q1, pitch, W int) {
	for q := q0; q < q1; q++ {
		dst := stage[(q-q0)*pitch*W:][:pitch*W]
		iz := q%p.od + dz
		if iz < 0 || iz >= p.id {
			clear(dst)
			continue
		}
		plane := p.in[((q/p.od*p.ic+cin)*p.id+iz)*p.ih*p.iw:][:p.ih*p.iw]
		lo, hi := max(0, -dx), max(0, min(W, p.iw-dx))
		for r := 0; r < pitch; r++ {
			row := dst[r*W:][:W]
			iy := r + dy
			if iy < 0 || iy >= p.ih || lo >= hi {
				clear(row)
				continue
			}
			// The padding is a few columns: loops beat clear's call.
			for i := range row[:lo] {
				row[i] = 0
			}
			copy(row[lo:hi], plane[iy*p.iw+dx+lo:])
			for i := range row[hi:] {
				row[hi+i] = 0
			}
		}
	}
	clear(stage[(q1-q0)*pitch*W:][:p.g.kw-1])
}

// strided runs a pass of stride s > 1, reading input rows where they lie.
// A job owns a block of up to rowBlock elements — whole rows, or a slice of
// one row wider than that — times up to four output channels. Each tap
// adds, per output row, the columns [lo, hi) it reaches to the
// accumulator, skipping taps that fall into the padding.
func (p rowPass) strided() {
	g, s := p.g, p.g.s
	terms := p.ic * g.kd * g.kh * g.kw
	if p.transposed {
		terms = p.ic * max(1, g.kd/s) * max(1, g.kh/s) * max(1, g.kw/s)
	}
	l := stridedPass{rowPass: p, rows: g.n * p.od * p.oh, rowsPer: max(1, rowBlock/p.ow),
		colBlocks: ceilDiv(p.ow, rowBlock), chanBlocks: (p.oc + 3) / 4}
	jobs := ceilDiv(l.rows, l.rowsPer) * l.colBlocks * l.chanBlocks
	l.u = max(1, min(l.rowsPer, l.rows)*min(p.ow, rowBlock)*4*terms/rowWorkUnit)
	tensor.ParallelRange(jobs*l.u, l.run)
}

// stridedPass is a strided pass and its job layout.
type stridedPass struct {
	rowPass
	rows, rowsPer, colBlocks, chanBlocks, u int
}

// run runs the jobs of work units [lo, hi).
func (l stridedPass) run(lo, hi int) {
	p, g, od, oh, ow, oc, id, ih, iw := &l.rowPass, l.g, l.od, l.oh, l.ow, l.oc, l.id, l.ih, l.iw
	s, kd, kh, kw, u := g.s, g.kd, g.kh, g.kw, l.u
	rows, rowsPer, colBlocks, chanBlocks := l.rows, l.rowsPer, l.colBlocks, l.chanBlocks
	sc := rowScratchPool.Get().(*rowScratch)
	defer rowScratchPool.Put(sc)
	acc, wt := sc.acc[:], &sc.wt
	for j := (lo + u - 1) / u; j < (hi+u-1)/u; j++ {
		t, c0 := j/chanBlocks, j%chanBlocks*4
		r0, x0 := t/colBlocks*rowsPer, t%colBlocks*rowBlock
		r1, x1 := min(r0+rowsPer, rows), min(x0+rowBlock, ow)
		bw, nc := x1-x0, min(4, oc-c0)
		n0, z0, y0 := r0/(od*oh), r0/oh%od, r0%oh
		p.initAcc(acc, c0, nc, (r1-r0)*bw)
		for cin := 0; cin < p.ic; cin++ {
			for kz := 0; kz < kd; kz++ {
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw; kx++ {
						// The output columns [x0, x1) the tap reaches, as
						// [lo, hi) on the strided side: out[off+j·sa] += w·in[src+j·sx].
						var lo, hi, off, src, sa, sx int
						if p.transposed {
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
						gather(wt[:], p.taps(c0, cin, kz, ky), p.oStep, nc, kx)
						n, z, y := n0, z0, y0
						for r := r0; r < r1; r++ {
							iz, okz := tapRow(z, g.pd, kz, s, id, p.transposed)
							iy, oky := tapRow(y, g.ph, ky, s, ih, p.transposed)
							if okz && oky {
								row := (((n*p.ic+cin)*id+iz)*ih + iy) * iw
								maddRow(acc, (r-r0)*bw+off, nc, wt, p.in[row+src:], hi-lo, sa, sx)
							}
							n, z, y = nextRow(n, z, y, od, oh)
						}
					}
				}
			}
		}
		for c := 0; c < nc; c++ {
			b := p.lastBias(c0 + c)
			n, z, y := n0, z0, y0
			for r := r0; r < r1; r++ {
				row := p.out[(((n*oc+c0+c)*od+z)*oh+y)*ow+x0:][:bw]
				for i, v := range acc[c*rowStride+(r-r0)*bw:][:len(row)] {
					row[i] = v + b
				}
				n, z, y = nextRow(n, z, y, od, oh)
			}
		}
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

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

// rowVec, if a CPU probe at start-up sets it, holds the vector forms of
// maddRow's stride-1 loop, with the same bits, over a multiple-of-4 prefix
// of x: madd4 for four channels, madd1 for one.
var rowVec *vecKernels

type vecKernels struct {
	madd4 func(acc []float64, wt *[4]float64, x []float64)
	madd1 func(acc []float64, w float64, x []float64)
	// madd4x3 is three madd4 calls at once: x[j], x[j+1], x[j+2] (rev:
	// x[j+2], x[j+1], x[j]) times wt[0:4], wt[4:8], wt[8:12], for the
	// len(x)−2 columns j.
	madd4x3 func(acc []float64, wt *[12]float64, x []float64, rev bool)
}

// maddRow adds wt[c]·x[j·sx] into acc[c·rowStride + off + j·sa] for j < n
// and each of the nc ≤ 4 channels.
func maddRow(acc []float64, off, nc int, wt *[4]float64, x []float64, n, sa, sx int) {
	if m := n &^ 3; m > 0 && sa == 1 && sx == 1 && rowVec != nil {
		if nc == 4 {
			rowVec.madd4(acc[off:off+3*rowStride+m], wt, x[:m])
		} else {
			for c := 0; c < nc; c++ {
				rowVec.madd1(acc[off+c*rowStride:][:m], wt[c], x[:m])
			}
		}
		off, x, n = off+m, x[m:], n-m
	}
	switch {
	case sa == 1 && sx == 1:
		for c := 0; c < nc; c++ {
			w, a := wt[c], acc[c*rowStride+off:][:n]
			for j, v := range x[:n] {
				a[j] += float64(w * v)
			}
		}
	case nc == 4:
		w0, w1, w2, w3 := wt[0], wt[1], wt[2], wt[3]
		a := acc[off:]
		for j := 0; j < n; j++ {
			v, i := x[j*sx], j*sa
			a[i] += float64(w0 * v)
			a[i+rowStride] += float64(w1 * v)
			a[i+2*rowStride] += float64(w2 * v)
			a[i+3*rowStride] += float64(w3 * v)
		}
	default:
		for c := 0; c < nc; c++ {
			a := acc[c*rowStride+off:]
			for j := 0; j < n; j++ {
				a[j*sa] += float64(wt[c] * x[j*sx])
			}
		}
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
				a += float64(v * x[j*sx])
			}
			acc[c] = a
		}
		return
	}
	a0, a1, a2, a3 := acc[0], acc[1], acc[2], acc[3]
	y0, y1, y2, y3 := y[:n], y[cs:][:n], y[2*cs:][:n], y[3*cs:][:n]
	if sx == 1 {
		for j, v := range x[:n] {
			a0 += float64(y0[j] * v)
			a1 += float64(y1[j] * v)
			a2 += float64(y2[j] * v)
			a3 += float64(y3[j] * v)
		}
	} else {
		for j := range y0 {
			v := x[j*sx]
			a0 += float64(y0[j] * v)
			a1 += float64(y1[j] * v)
			a2 += float64(y2[j] * v)
			a3 += float64(y3[j] * v)
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
