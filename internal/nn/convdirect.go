package nn

import (
	"math"
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
// and weightGrad a second one (weightGradRows). Only a lowered Conv's
// input gradient keeps a GEMM lowering, in im2col.go. Every correlate sum
// runs in the order cin → kz → ky → kx (adjoint: cout → kz → ky → kx),
// and every weight-gradient sum over the written grid in the orders
// weightGradRows describes; the training benchmark pins the resulting
// bits.
//
// rowProduct stages its input. A job copies, per input channel and kz, the
// input rows its block of output rows reads into per-worker scratch, each
// padded with zero columns (the convolution's padding, and then up to a
// multiple of 4) to a width W that holds every column any tap reads. Its
// accumulator rows have the same width, so input and accumulator line up
// and every tap is one offset: the tap adds w times the staged block,
// shifted by the tap, to the whole accumulator block in one contiguous
// call, with no clamp at the edges. The columns past the output width, and
// the rows between two planes of a block, accumulate garbage that the
// write-out drops. Where the staged block would be a run of the input as it
// lies (a kernel one tap wide, unpadded, over rows a multiple of 4 wide),
// the job reads that run in place.
//
// At stride s > 1 the two directions split differently. A correlate stages
// its rows and columns de-interleaved into s phases each, so tap k of an
// axis with padding p reads phase (k − p) mod s at offset ⌊(k − p)/s⌋: each
// tap is again one offset, and the taps keep their order. An adjoint splits
// its output into parity classes r = (rz, ry, rx), the sub-pixel form of a
// transposed convolution: class element j lands at output index s·j + r
// and sums the taps k ≡ r + p (mod s), ascending, so each class is a
// stride-1 adjoint with that sub-kernel, staged as above and written out
// at stride s. An element no tap reaches gets its bias alone. At k = s and
// p = 0, the U-Net's up-convolutions, every class is one tap per input
// element, read in place.
//
// Why the bits hold. A staged sum also adds the padding terms that the
// reference nests skip: w·(+0), at every stride, which is ±0 for a finite
// w. Adding ±0 changes no sum but a −0 one, and a sum that starts at +0
// never becomes −0 under round-to-nearest (x + (−x) is +0). A sum that
// starts at a −0 bias may, but the write-out adds +0 to every bias-first
// sum, so an exactly zero result is +0 either way. So for finite weights
// the staged kernel gives the bits of skipping the padding. A non-finite
// weight makes a padding term NaN (∞·0, NaN·0), and every element sums
// every tap of its (sub-)kernel: the output channel that weight feeds — in
// a strided adjoint, that channel's parity class the tap belongs to — is
// non-finite throughout, where skipping the padding leaves finite the
// elements whose window that tap leaves.
//
// A job's first tap starts its sums: it writes init + w·x, init the bias
// where it comes first and +0 otherwise, in the operand order of every
// later tap's acc + w·x. That is the sum a bias-filled (or zeroed)
// accumulator would hold after that tap, so no sweep fills the
// accumulators first. Only a parity class that no tap reaches is filled
// with init, its sums' only term.
//
// The write-out is the last pass over a block. At inference a convolution
// that a BatchNorm and a LeakyReLU follow in a Sequential (tail) applies
// them there (epilogue): v + b, then g·(v − mu)·inv + beta with inv =
// 1/√(var + ε), then v·α where v < 0, each the operation those layers run,
// with each product rounded on its own, in their order and operand order,
// so their separate sweeps go and the bits stay. The vector form is one
// VADDPD; VSUBPD, VMULPD, VMULPD, VADDPD; and a VCMPPD (LT_OQ, false for
// ±0 and NaN) that selects v·α, per vector of elements. The Go form
// selects v·α by the sign and magnitude bits of v (leaky), so neither has
// a branch on the data: a branch per element costs what the sweep saves.
//
// A decoder convolution's input is the channel concatenation of the
// up-convolution's output and the skip tensor. The pass reads its channel
// planes from the two tensors (in, in2) where the staging and the weight
// gradient read them, so the concatenation is never built.
//
// On amd64 with AVX, maddRow runs four columns per instruction (rowVec):
// the four-channel kernel for full channel groups, the one-channel kernel
// per channel otherwise, and the three-tap kernel for each kx triple of a
// row staged at stride 1. With AVX-512 the same three kernels run eight
// columns per instruction over the multiple-of-8 prefix, and the
// four-column ones the rest. Each lane is one output column with its own
// VMULPD and VADDPD per term in the Go loop's operand order, never a fused
// multiply-add, so its bits are the Go loop's, which every other CPU runs,
// at either lane count, and the epilogue's lanes likewise. The Go loops
// write each product as float64(w·x), which no compiler fuses.

// correlateRows overwrites yd with W ⋆ x. A nil bias is zero; otherwise
// biasLast picks where it enters each sum: first, as the direct nest adds
// it, or after every tap, as the lowering y = W·im2col(x) + b does. Both
// orders are pinned (see ConvAlgo), and they are the only difference
// between the two: a lowered sum's extra padding terms are w·(+0), which
// cannot change a sum that starts at +0.
func correlateRows(yd, xd, wd, bias []float64, g geom, biasLast bool) {
	rowProduct(rowPass{out: yd, in: xd, wd: wd, bias: bias, g: g, biasLast: biasLast})
}

// adjointRows overwrites xd with Wᵀ ⋆ y in gather form: every read-grid
// element sums, after its bias (nil is zero), the written-grid elements
// whose window covers it.
func adjointRows(xd, yd, wd, bias []float64, g geom) {
	rowProduct(rowPass{out: xd, in: yd, wd: wd, bias: bias, g: g, transposed: true})
}

// The row kernel splits its output into jobs of up to four output channels
// times a block of up to rowBlock accumulator elements per channel, held in
// pooled scratch and then written out. Each channel's stretch of the
// accumulator is padded so the four accumulator rows never sit a multiple
// of 4 KiB apart: accumulating into rows a power-of-two volume apart stalls
// on store/load aliasing.
const (
	rowBlock  = 1024
	rowStride = rowBlock + 8
)

// rowScratch is one worker's accumulator block, weight gather and staged
// input rows, pooled as one allocation because passing them to the vector
// kernels, function values, moves them to the heap. stage holds every
// staged block of a stride-1 kernel up to 3 taps tall (at most rowBlock
// accumulator elements plus two halo rows of at most rowBlock columns, plus
// kw−1), and of a stride-2 one without halo rows.
type rowScratch struct {
	acc   [4 * rowStride]float64
	wt    [4]float64
	wt3   [12]float64
	init  accInit
	epi   epilogue
	stage [4 * rowBlock]float64
}

// accInit holds, per channel, the value a job's first tap starts its sums
// from: the channel's bias, or +0 when the bias comes last. Each is
// repeated over eight lanes, so a vector kernel reads it as it would read
// an accumulator row.
type accInit [4][8]float64

var rowScratchPool = sync.Pool{New: func() any { return new(rowScratch) }}

// rowProduct overwrites out with correlate, or with adjoint when
// transposed. Each output element sums its bias (first unless biasLast) and
// one term per kernel tap that reaches it, in the order input channel → kz
// → ky → kx.
//
// A job owns up to four output channels of one parity class (the whole
// output, but in a strided adjoint) times a block of the class: the
// columns [x0, x0+cols) of the rows [y0, y0+seg) in each of the planes
// [q0, q1) — plane q is sample q/nz, class depth q%nz. All classes share
// the layout of the largest, class 0: short planes are packed into one
// block, tall ones cut into pieces of equal height, and rows wider than the
// accumulator block into column blocks. The jobs of one block — its classes,
// and in each its channel groups — are consecutive, so its input rows stay
// in cache across them.
func rowProduct(pass rowPass) {
	g := pass.g
	kvol := g.kd * g.kh * g.kw
	l := stagedPass{rowPass: pass}
	p := &l.rowPass
	p.od, p.oh, p.ow, p.oc, p.id, p.ih, p.iw, p.ic = g.do, g.ho, g.wo, g.co, g.d, g.h, g.w, g.ci
	p.oStep, p.iStep = g.ci*kvol, kvol
	l.S, l.os, l.cz, l.cy, l.cx = g.s, 1, 1, 1, 1
	if p.transposed {
		p.od, p.oh, p.ow, p.oc, p.id, p.ih, p.iw, p.ic = g.d, g.h, g.w, g.ci, g.do, g.ho, g.wo, g.co
		p.oStep, p.iStep = kvol, g.ci*kvol
		l.S, l.os, l.cz, l.cy, l.cx = 1, g.s, min(g.s, p.od), min(g.s, p.oh), min(g.s, p.ow)
	}
	p.ivol = p.id * p.ih * p.iw
	p.ia = len(p.in) / (g.n * p.ivol)
	l.nz, l.ny, l.nx = l.axis(g.kd, g.pd, p.od, 0).n, l.axis(g.kh, g.ph, p.oh, 0).n, l.axis(g.kw, g.pw, p.ow, 0).n
	tz, ty, tx := 0, 0, 0 // the most taps of any class, per axis
	for r := 0; r < l.cz; r++ {
		tz = max(tz, l.axis(g.kd, g.pd, p.od, r).taps)
	}
	for r := 0; r < l.cy; r++ {
		a := l.axis(g.kh, g.ph, p.oh, r)
		ty, l.haloY = max(ty, a.taps), max(l.haloY, a.halo(l.S))
	}
	for r := 0; r < l.cx; r++ {
		a := l.axis(g.kw, g.pw, p.ow, r)
		tx, l.haloX = max(tx, a.taps), max(l.haloX, a.halo(l.S))
	}
	l.colBlocks = ceilDiv(l.nx, rowBlock-l.haloX)
	l.cols = ceilDiv(l.nx, l.colBlocks)
	l.colBlocks = ceilDiv(l.nx, l.cols)
	l.W = (l.cols + l.haloX + 3) &^ 3
	rowsMax := max(1, rowBlock/(l.W*l.S*l.S))
	l.planes, l.perJob, l.seg = g.n*l.nz, 1, l.ny
	if l.ny <= rowsMax {
		l.perJob = min(l.planes, (rowsMax+l.haloY)/(l.ny+l.haloY))
	} else {
		l.seg = ceilDiv(l.ny, ceilDiv(l.ny, rowsMax))
	}
	l.perJob = ceilDiv(l.planes, ceilDiv(l.planes, l.perJob))
	l.pieces, l.chanBlocks = ceilDiv(l.ny, l.seg), (p.oc+3)/4
	jobs := ceilDiv(l.planes, l.perJob) * l.pieces * l.colBlocks * l.cz * l.cy * l.cx * l.chanBlocks
	madds := ((l.perJob-1)*(l.seg+l.haloY) + l.seg) * l.W * 4 * p.ic * tz * ty * tx // per job, at most
	// A method value of a value receiver carries its copy of l: the pass
	// allocates that one closure, where a func literal would also move l
	// to the heap.
	tensor.Parallel(jobs, madds, l.run)
}

// rowPass is one rowProduct call: its operands, the output grid (o…) with
// oc channels, the input grid (i…) with ic, and their channel strides in
// the weights. The input's channels are the ia of in, then those of in2:
// a decoder convolution reads the channel concatenation of its two inputs
// without building it. The write-out applies tail to every sum.
type rowPass struct {
	out, in, in2, wd, bias []float64
	g                      geom
	transposed, biasLast   bool
	tail                   tail
	od, oh, ow, oc         int
	id, ih, iw, ic         int
	ivol, ia               int
	oStep, iStep           int
}

// plane returns input channel c of sample n.
func (p *rowPass) plane(n, c int) []float64 {
	return channelPlane(p.in, p.in2, n, c, p.ia, p.ic, p.ivol)
}

// channelPlane returns channel c of sample n of an operand with ch
// channels of vol elements: the ca channels of a, then the rest, of b.
func channelPlane(a, b []float64, n, c, ca, ch, vol int) []float64 {
	if c < ca {
		return a[(n*ca+c)*vol:][:vol]
	}
	return b[(n*(ch-ca)+c-ca)*vol:][:vol]
}

// stagedPass is a rowPass and its job layout. The input is staged at
// stride S (the pass's stride for a correlate, 1 for an adjoint) and
// written out at stride os (the pass's stride for an adjoint, else 1);
// each axis has cz, cy, cx parity classes, the largest with nz, ny, nx
// elements. The staged blocks of a job reach haloY rows and haloX columns
// past its accumulator block.
type stagedPass struct {
	rowPass
	S, os, cz, cy, cx                       int
	nz, ny, nx, haloY, haloX                int
	cols, colBlocks, W                      int
	planes, perJob, seg, pieces, chanBlocks int
}

// axisClass is parity class r of one axis of a pass, the only class but in
// a strided adjoint. Its n elements j land at output index os·j + r. Its
// sub-tap m < taps is weight tap k0 + s·m (m at stride 1 or in a
// correlate), and joins element j to input index j·S − lead + t, with t,
// the staged-side tap, m in a correlate and taps−1−m in an adjoint. A block
// starting at element j0 stages, in phase φ, input indices S·(j0 − from +
// i) + φ for i = 0, 1, ….
type axisClass struct{ r, n, taps, k0, lead, from int }

// axis returns class r of the axis with a k-tap kernel, padding pad and n
// output elements.
func (l *stagedPass) axis(k, pad, n, r int) axisClass {
	s := l.g.s
	if !l.transposed {
		return axisClass{n: n, taps: k, lead: pad, from: ceilDiv(pad, s)}
	}
	k0 := (r + pad) % s
	taps := ceilDiv(k-k0, s)
	lead := taps - 1 - (r+pad)/s
	return axisClass{r: r, n: ceilDiv(n-r, s), taps: taps, k0: k0, lead: lead, from: lead}
}

// shift returns where sub-tap m reads the staged block: phase shift%S, at
// offset shift/S from the element it adds to.
func (a axisClass) shift(m, S int, transposed bool) int {
	if transposed {
		m = a.taps - 1 - m
	}
	return m - a.lead + S*a.from
}

// halo returns the largest offset any sub-tap reads at.
func (a axisClass) halo(S int) int {
	if a.taps == 0 {
		return 0
	}
	return (a.taps - 1 - a.lead + S*a.from) / S
}

// run runs the jobs [lo, hi).
func (l stagedPass) run(lo, hi int) {
	p, g, S, W, tr := &l.rowPass, l.g, l.S, l.W, l.transposed
	ks := 1 // weight taps between two sub-taps
	if tr {
		ks = g.s
	}
	sc := rowScratchPool.Get().(*rowScratch)
	defer rowScratchPool.Put(sc)
	acc, wt := sc.acc[:], &sc.wt
	for j := lo; j < hi; j++ {
		t, c0 := j/l.chanBlocks, j%l.chanBlocks*4
		t, cls := t/(l.cz*l.cy*l.cx), t%(l.cz*l.cy*l.cx)
		t, x0 := t/l.colBlocks, t%l.colBlocks*l.cols
		q0, y0 := t/l.pieces*l.perJob, t%l.pieces*l.seg
		az := l.axis(g.kd, g.pd, p.od, cls/(l.cy*l.cx))
		ay := l.axis(g.kh, g.ph, p.oh, cls/l.cx%l.cy)
		ax := l.axis(g.kw, g.pw, p.ow, cls%l.cx)
		q1, y1, x1 := min(q0+l.perJob, l.planes), min(y0+l.seg, ay.n), min(x0+l.cols, ax.n)
		if y0 >= y1 || x0 >= x1 {
			continue
		}
		nc, pitch := min(4, p.oc-c0), y1-y0+l.haloY
		span := ((q1-q0)*pitch - l.haloY) * W
		phase := (q1-q0)*pitch*W + l.haloX // one phase of a staged block
		// The job's first tap writes init + w·x; every later one adds.
		from := p.startSums(&sc.init, c0, nc)
		for cin := 0; cin < p.ic; cin++ {
			for mz := 0; mz < az.taps; mz++ {
				dz := az.shift(mz, 1, tr) - az.from
				stage := l.stage(sc.stage[:], cin, dz, y0-ay.from, x0-ax.from, q0, q1, pitch)
				for my := 0; my < ay.taps; my++ {
					w := p.taps(c0, cin, az.k0+ks*mz, ay.k0+ks*my)
					vy := ay.shift(my, S, tr)
					rows := stage[vy%S*S*phase+vy/S*W:]
					mx := 0
					for ; S == 1 && nc == 4 && rowVec != nil && mx+3 <= ax.taps; mx += 3 {
						for i := 0; i < 3; i++ {
							gather(sc.wt3[4*i:], w, p.oStep, nc, ax.k0+ks*(mx+i))
						}
						first := min(ax.shift(mx, 1, tr), ax.shift(mx+2, 1, tr))
						madd4x3From(acc, &sc.wt3, rows[first:], span, tr, from)
						from = nil
					}
					for ; mx < ax.taps; mx++ {
						vx := ax.shift(mx, S, tr)
						gather(wt[:], w, p.oStep, nc, ax.k0+ks*mx)
						maddRowFrom(acc, nc, wt, rows[vx%S*phase+vx/S:][:span], from)
						from = nil
					}
				}
			}
		}
		if from != nil { // a parity class no tap reaches: its sums are init alone
			for c := 0; c < nc; c++ {
				for i := range acc[c*rowStride:][:span] {
					acc[c*rowStride+i] = from[c][0]
				}
			}
		}
		// The write-out applies the epilogue, which adds the bias where it
		// comes last (else +0), and scatters each class row to its output
		// row at stride os.
		for c := 0; c < nc; c++ {
			sc.epi = p.epilogue(c0 + c)
			e := &sc.epi
			for q := q0; q < q1; q++ {
				z := q % l.nz
				if z >= az.n {
					continue
				}
				for y := y0; y < y1; y++ {
					src := acc[c*rowStride+((q-q0)*pitch+y-y0)*W:][:x1-x0]
					row := p.out[(((q/l.nz*p.oc+c0+c)*p.od+l.os*z+az.r)*p.oh+l.os*y+ay.r)*p.ow+l.os*x0+ax.r:]
					if l.os == 1 {
						e.apply(row[:len(src)], src)
						continue
					}
					// Only an adjoint writes at a stride, and it has no tail.
					for i, v := range src {
						row[i*l.os] = v + e.b
					}
				}
			}
		}
	}
}

// startSums fills in the values the nc channels from c0 start their sums
// from: each channel's bias where it comes first, else +0.
func (p *rowPass) startSums(in *accInit, c0, nc int) *accInit {
	for c := 0; c < nc; c++ {
		b := 0.0
		if p.bias != nil && !p.biasLast {
			b = p.bias[c0+c]
		}
		for i := range in[c] {
			in[c][i] = b
		}
	}
	return in
}

// epilogue returns what the write-out applies to channel c's sums: its
// bias where it comes last (else +0), then the pass's tail.
func (p *rowPass) epilogue(c int) epilogue {
	var e epilogue
	if p.bias != nil && p.biasLast {
		e.b = p.bias[c]
	}
	if bn := p.tail.bn; bn != nil {
		e.bn = true
		e.mu, e.g, e.beta = bn.RunningMean[c], bn.Gamma.Data.Data[c], bn.Beta.Data.Data[c]
		e.inv = 1.0 / math.Sqrt(bn.RunningVar[c]+bn.Epsilon)
	}
	if lr := p.tail.leaky; lr != nil {
		e.leaky, e.alpha = true, lr.Alpha
	}
	return e
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

// stage returns the staged block of input channel cin for the planes
// [q0, q1). It has S² phases (ψ, φ), each pitch rows of W columns per
// plane, then haloX zeros for the last taps' overreach: row r, column c of
// phase (ψ, φ) in the plane at class depth z holds input element
// (z·S + dz, S·(dy + r) + ψ, S·(dx + c) + φ), zero outside the input grid.
// Where that block is a run of the input as it lies, stage returns the run
// instead of copying it into buf.
func (l *stagedPass) stage(buf []float64, cin, dz, dy, dx, q0, q1, pitch int) []float64 {
	p, S, W := &l.rowPass, l.S, l.W
	n0, z0, z1 := q0/l.nz, q0%l.nz+dz, (q1-1)%l.nz+dz
	if S == 1 && l.haloX == 0 && W == p.iw && dx == 0 && (q1-1)/l.nz == n0 && z0 >= 0 && z1 < p.id &&
		dy >= 0 && dy+pitch <= p.ih && (q1-q0 == 1 || pitch == p.ih) {
		return p.plane(n0, cin)[z0*p.ih*p.iw+dy*p.iw:][:(q1-q0)*pitch*W]
	}
	phase := (q1-q0)*pitch*W + l.haloX
	if n := S * S * phase; n > len(buf) {
		buf = make([]float64, n) // a kernel taller than 3 over rows near rowBlock wide
	}
	for ph := 0; ph < S*S; ph++ {
		psi, phi := ph/S, ph%S
		blk := buf[ph*phase:][:phase]
		lo, hi := max(0, -dx), max(0, min(W, ceilDiv(p.iw-phi, S)-dx))
		for q := q0; q < q1; q++ {
			dst := blk[(q-q0)*pitch*W:][:pitch*W]
			iz := q%l.nz*S + dz
			if iz < 0 || iz >= p.id {
				clear(dst)
				continue
			}
			plane := p.plane(q/l.nz, cin)[iz*p.ih*p.iw:][:p.ih*p.iw]
			for r := 0; r < pitch; r++ {
				row := dst[r*W:][:W]
				iy := S*(dy+r) + psi
				if iy < 0 || iy >= p.ih || lo >= hi {
					clear(row)
					continue
				}
				// The padding is a few columns: loops beat clear's call.
				for i := range row[:lo] {
					row[i] = 0
				}
				src := plane[iy*p.iw:][:p.iw]
				if S == 1 {
					copy(row[lo:hi], src[dx+lo:])
				} else {
					for c := lo; c < hi; c++ {
						row[c] = src[S*(dx+c)+phi]
					}
				}
				for i := range row[hi:] {
					row[hi+i] = 0
				}
			}
		}
		clear(blk[phase-l.haloX:])
	}
	return buf
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// rowVec, if a CPU probe at start-up sets it, holds the vector forms of
// maddRow's loop, with the same bits, over a multiple-of-lanes prefix of x:
// madd4 for four channels, madd1 for one; and of the write-out's epilogue.
// A nil from adds into the accumulators, a non-nil one starts each
// channel's sums from its row of from instead. tail, if set, holds the
// four-lane forms for the rest of an eight-lane span.
var rowVec *vecKernels

type vecKernels struct {
	lanes int
	madd4 func(acc []float64, wt *[4]float64, x []float64, from *accInit)
	madd1 func(acc []float64, w float64, x []float64, from *[8]float64)
	// madd4x3 is three madd4 calls at once: x[j], x[j+1], x[j+2] (rev:
	// x[j+2], x[j+1], x[j]) times wt[0:4], wt[4:8], wt[8:12], for the
	// len(x)−2 columns j.
	madd4x3 func(acc []float64, wt *[12]float64, x []float64, rev bool, from *accInit)
	epi     func(dst, src []float64, e *epilogue)
	tail    *vecKernels
}

// maddRow adds wt[c]·x[j] into acc[c·rowStride + j] for each column j of x
// and each of the nc ≤ 4 channels.
func maddRow(acc []float64, nc int, wt *[4]float64, x []float64) {
	maddRowFrom(acc, nc, wt, x, nil)
}

// maddRowFrom is maddRow, but for a non-nil from it overwrites
// acc[c·rowStride + j] with from[c] + wt[c]·x[j]: a job's first tap.
func maddRowFrom(acc []float64, nc int, wt *[4]float64, x []float64, from *accInit) {
	for v := rowVec; v != nil; v = v.tail {
		m := len(x) &^ (v.lanes - 1)
		if m == 0 {
			continue
		}
		if nc == 4 {
			v.madd4(acc[:3*rowStride+m], wt, x[:m], from)
		} else {
			for c := 0; c < nc; c++ {
				var f *[8]float64
				if from != nil {
					f = &from[c]
				}
				v.madd1(acc[c*rowStride:][:m], wt[c], x[:m], f)
			}
		}
		acc, x = acc[m:], x[m:]
	}
	for c := 0; c < nc; c++ {
		w, a := wt[c], acc[c*rowStride:][:len(x)]
		if from != nil {
			b := from[c][0]
			for j, v := range x {
				a[j] = b + float64(w*v)
			}
			continue
		}
		for j, v := range x {
			a[j] += float64(w * v)
		}
	}
}

// madd4x3 runs rowVec's three-tap kernel over the first n columns of the
// four accumulator rows, n a multiple of 4, reading x[:n+2].
func madd4x3(acc []float64, wt *[12]float64, x []float64, n int, rev bool) {
	madd4x3From(acc, wt, x, n, rev, nil)
}

// madd4x3From is madd4x3 starting each channel's sums from its row of a
// non-nil from, as maddRowFrom does.
func madd4x3From(acc []float64, wt *[12]float64, x []float64, n int, rev bool, from *accInit) {
	for v := rowVec; v != nil && n > 0; v = v.tail {
		if m := n &^ (v.lanes - 1); m > 0 {
			v.madd4x3(acc[:3*rowStride+m], wt, x[:m+2], rev, from)
			acc, x, n = acc[m:], x[m:], n-m
		}
	}
}

// epilogue is what a convolution's write-out applies to each sum v of one
// output channel, in the operations of the unfused layers: v + b (the bias
// where it comes last, else +0); then, with bn, BatchNorm's inference
// affine g·(v − mu)·inv + beta; then, with leaky, LeakyReLU's v·alpha where
// v < 0. The vector kernels read its fields by offset (go_asm.h).
type epilogue struct {
	b, mu, g, inv, beta, alpha float64
	bn, leaky                  bool
}

// apply writes the epilogue of each element of src to dst.
func (e *epilogue) apply(dst, src []float64) {
	for v := rowVec; v != nil; v = v.tail {
		if m := len(src) &^ (v.lanes - 1); m > 0 {
			v.epi(dst[:m], src[:m], e)
			dst, src = dst[m:], src[m:]
		}
	}
	dst = dst[:len(src)]
	for i, v := range src {
		v += e.b
		if e.bn {
			v = float64(float64(e.g*(v-e.mu))*e.inv) + e.beta
		}
		if e.leaky {
			v = leaky(v, e.alpha)
		}
		dst[i] = v
	}
}

// leaky is LeakyReLU's "if v < 0 { v *= a }" with no branch on v, which
// the compiler would make a jump per element: v < 0 when v's sign bit is
// set and its magnitude bits lie in [1, +Inf's], that is, v is neither ±0
// nor NaN. neg is then all ones and selects v·a's bits.
func leaky(v, a float64) float64 {
	bits := math.Float64bits(v)
	abs := int64(bits &^ (1 << 63))
	neg := int64(bits) >> 63 &^ ((abs-1)>>63 | (0x7ff0000000000000-abs)>>63)
	return math.Float64frombits(bits ^ (bits^math.Float64bits(v*a))&uint64(neg))
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
// the padding are skipped. x's channels are those of xa, then of xb (nil
// but for a decoder convolution's second input).
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
func weightGradRows(gw, yd, xa, xb []float64, g geom, lowered bool) {
	n, ci, co, s := g.n, g.ci, g.co, g.s
	ca := len(xa) / (n * g.d * g.h * g.w)
	d, h, w, do, ho, wo := g.d, g.h, g.w, g.do, g.ho, g.wo
	kd, kh, kw := g.kd, g.kh, g.kw
	planes := do
	if lowered {
		planes = g.slabDepth()
	}
	small := co*g.rows() <= gradChunk
	chanBlocks, tapBlocks := (co+3)/4, (kw+gradTaps-1)/gradTaps
	jobs := chanBlocks * ci * kd * kh * tapBlocks

	tensor.Parallel(jobs, n*do*ho*wo*4*min(kw, gradTaps), func(lo, hi int) {
		var blk, part, tot [4 * gradTaps]float64
		var tapLo, tapHi [gradTaps]int
		for j := lo; j < hi; j++ {
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
					xp := channelPlane(xa, xb, bn, cin, ca, ci, d*h*w)
					for oz := z0; oz < z1; oz++ {
						iz := oz*s - g.pd + kz
						for oy := 0; oy < ho; oy++ {
							iy := oy*s - g.ph + ky
							inside := iz >= 0 && iz < d && iy >= 0 && iy < h
							yRow := (((bn*co+c0)*do+oz)*ho + oy) * wo
							xRow := (iz*h+iy)*w - g.pw + kx0
							// [a, b) is the stretch of this row inside one block.
							for a := 0; a < wo; {
								b := min(wo, blockEnd-q)
								for i := 0; inside && i < nt; i++ {
									if lo, hi := max(tapLo[i], a), min(tapHi[i], b); lo < hi {
										maddCols(blk[4*i:4*i+4], nc, yd[yRow+lo:], do*ho*wo, xp[xRow+lo*s+i:], hi-lo, s)
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
