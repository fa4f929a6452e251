package nn

import (
	"fmt"
	"math"

	"mgdiffnet/internal/tensor"
)

// ConvAlgo selects how a convolution layer executes its kernels.
type ConvAlgo int

// A convolution's forward pass runs the staged row kernel at every size
// and stride (correlateRows; ConvTranspose3D's adjointRows, split by
// parity class at stride 2), except ConvTranspose2D's, which lowers to
// GEMM + col2im; every weight gradient reads rows in place too
// (weightGradRows). What the algorithm still selects is the lowered
// arithmetic's order: a lowered forward adds the bias after every tap
// instead of before, and a lowered backward sums the weight gradient in
// the blocked order of the GEMM it replaced and computes the input
// gradient as GEMM + col2im.
const (
	// ConvAuto (the zero value) lowers where the lowering was measured to
	// win: always at rank 4, and at rank 5 once the output volume reaches
	// conv3dGEMMMinVolume.
	ConvAuto ConvAlgo = iota
	// ConvDirect forces the direct order — bias first, one sum per
	// weight-gradient element, the row gather for the input gradient — the
	// correctness oracle the lowering is tested against.
	ConvDirect
	// ConvGEMM forces the lowering regardless of size.
	ConvGEMM
)

// conv3dGEMMMinVolume is the per-sample output voxel count from which
// ConvAuto gives Conv3D the lowered arithmetic: the bias enters its forward
// sums last and its backward runs the lowered orders. The forward and
// weight-gradient kernels are the same either way; the threshold stays
// because the training bits are pinned to it. It reads the per-sample volume only — not the batch size —
// so data-parallel batch sharding (dist.ParallelTrainer) cannot change which
// order a replica runs.
const conv3dGEMMMinVolume = 32 * 32 * 32

// geom is the geometry of one convolution over NCDHW data: the grid it
// reads (d, h, w) with ci channels, the grid it writes (do, ho, wo) with co
// channels, and a per-axis kernel and zero padding with one stride. The
// weight layout is [co, ci, kd, kh, kw].
//
// Rank 4 is the depth-1 case: an NCHW tensor is byte for byte the NC1HW
// tensor and a [co, ci, kh, kw] weight the [co, ci, 1, kh, kw] weight, so
// the 2D layers run the same kernels with d = do = kd = 1, pd = 0.
//
// A transposed convolution is described by the convolution it is the
// adjoint of: its input lives on (do, ho, wo) with co channels, its output
// on (d, h, w) with ci channels, and its [Cin, Cout, K…] weight is that
// convolution's [co, ci, K…] weight unchanged.
type geom struct {
	n, ci, co  int
	d, h, w    int
	do, ho, wo int
	kd, kh, kw int
	pd, ph, pw int
	s          int
}

// gridOf returns x's spatial extent as (d, h, w), depth 1 at rank 4.
func gridOf(x *tensor.Tensor, who string) (d, h, w int) {
	switch x.Rank() {
	case 4:
		return 1, x.Dim(2), x.Dim(3)
	case 5:
		return x.Dim(2), x.Dim(3), x.Dim(4)
	}
	panic(fmt.Sprintf("nn: %s expects rank-4 or rank-5 input, got shape %v", who, x.Shape()))
}

// gridShape is the inverse of gridOf: the shape of c channels on a
// (d, h, w) grid at the given rank. Rank 4 has no depth axis (d is 1).
func gridShape(rank, n, c, d, h, w int) []int {
	if rank == 4 {
		return []int{n, c, h, w}
	}
	return []int{n, c, d, h, w}
}

// kernelGeom is the geometry of a bare kd×k×k, stride-s, (pd, p, p)-padded
// window sweep over n samples of ci channels on a (d, h, w) grid.
func kernelGeom(n, ci, d, h, w, kd, k, pd, p, s int) geom {
	g := geom{n: n, ci: ci, d: d, h: h, w: w, kd: kd, kh: k, kw: k, pd: pd, ph: p, pw: p, s: s}
	g.do, g.ho, g.wo = (d+2*pd-kd)/s+1, (h+2*p-k)/s+1, (w+2*p-k)/s+1
	return g
}

// convGeom builds the geometry of a convolution layer reading the channels
// of x, then those of x2 (nil: x alone), with a kd×k×k kernel and
// (pd, p, p) padding, and rejects inputs it cannot take.
func convGeom(who string, x, x2 *tensor.Tensor, cin, cout, kd, k, pd, p, s int) geom {
	d, h, w := gridOf(x, who)
	ch := x.Dim(1)
	if x2 != nil {
		if x2.Rank() != x.Rank() || x2.Dim(0) != x.Dim(0) || x2.Len()/x2.Dim(1) != x.Len()/x.Dim(1) {
			panic(fmt.Sprintf("nn: %s cannot join inputs %v and %v along the channels", who, x.Shape(), x2.Shape()))
		}
		ch += x2.Dim(1)
	}
	if ch != cin {
		panic(fmt.Sprintf("nn: %s expects %d input channels, got %d", who, cin, ch))
	}
	g := kernelGeom(x.Dim(0), cin, d, h, w, kd, k, pd, p, s)
	g.co = cout
	if g.do <= 0 || g.ho <= 0 || g.wo <= 0 {
		panicCollapsed(who, x, k, s, p)
	}
	return g
}

func panicCollapsed(who string, x *tensor.Tensor, k, s, p int) {
	panic(fmt.Sprintf("nn: %s output collapsed for input %v kernel %d stride %d pad %d", who, x.Shape()[2:], k, s, p))
}

// transposedGeom builds the geometry of a transposed-convolution layer
// reading x: x lives on the written grid of the convolution it inverts.
func transposedGeom(who string, x *tensor.Tensor, cin, cout, kd, k, pd, p, s int) geom {
	d, h, w := gridOf(x, who)
	if x.Dim(1) != cin {
		panic(fmt.Sprintf("nn: %s expects %d input channels, got %d", who, cin, x.Dim(1)))
	}
	g := geom{n: x.Dim(0), ci: cout, co: cin, do: d, ho: h, wo: w, kd: kd, kh: k, kw: k, pd: pd, ph: p, pw: p, s: s}
	g.d, g.h, g.w = (d-1)*s-2*pd+kd, (h-1)*s-2*p+k, (w-1)*s-2*p+k
	if g.d <= 0 || g.h <= 0 || g.w <= 0 {
		panicCollapsed(who, x, k, s, p)
	}
	return g
}

// convState is what a convolution layer of either rank and direction keeps
// between calls: the input cached for Backward (a decoder convolution's
// two, in and in2, whose channels it reads in that order), the recyclable
// outputs, the scratch of the lowered adjoint (a lowered convolution's
// input gradient, and ConvTranspose2D's forward) and the cached matrix
// view of the weights.
//
// Outputs and scratch are per layer, so a layer — and hence any network
// containing one — must not run concurrent Forward calls on a shared
// instance, not even with train=false. Clone the network per goroutine
// instead, as dist.SpatialInference and dist.ParallelTrainer do.
type convState struct {
	in, in2          *tensor.Tensor
	fwd, bwd         outBuf
	colsBuf, prodBuf gemmBuf
	wMatView         *tensor.Tensor
}

func (s *convState) setBufferReuse(on bool)     { s.fwd.on, s.bwd.on = on, on }
func (s *convState) setOutput(t *tensor.Tensor) { s.fwd.set = t }

// tail is what an inference forward fuses into a convolution's write-out:
// the BatchNorm and the LeakyReLU that follow it, where they do (see
// epilogue). Training runs them as layers of their own.
type tail struct {
	bn    *BatchNorm
	leaky *LeakyReLU
}

// convForward computes y = W ⋆ x + b on the written grid of g, with x the
// channels of x, then of x2 (nil: x alone), and applies t to every element.
func (s *convState) convForward(x, x2 *tensor.Tensor, train bool, t tail, w, b *Param, g geom, lower bool) *tensor.Tensor {
	if train {
		s.in, s.in2 = x, x2
	}
	if t.bn != nil && t.bn.C != g.co {
		panic("nn: BatchNorm channel mismatch")
	}
	var in2 []float64
	if x2 != nil {
		in2 = x2.Data
	}
	out := s.fwd.get(gridShape(x.Rank(), g.n, g.co, g.do, g.ho, g.wo)...)
	rowProduct(rowPass{out: out.Data, in: x.Data, in2: in2, wd: w.Data.Data, bias: b.Data.Data, g: g, biasLast: lower, tail: t})
	return out
}

// convBackward accumulates the parameter gradients of convForward and
// returns the input gradient.
func (s *convState) convBackward(grad *tensor.Tensor, w, b *Param, g geom, lower bool) *tensor.Tensor {
	// The lowered pass sums the bias gradient one depth slab at a time,
	// like its other gradients: the order the 3D training bits are pinned to.
	planes := g.do
	if lower {
		planes = g.slabDepth()
	}
	biasGrad(b.Grad.Data, grad.Data, g.n, g.do*g.ho*g.wo, planes*g.ho*g.wo)
	in2, shape := []float64(nil), s.in.Shape()
	if s.in2 != nil {
		in2, shape = s.in2.Data, gridShape(s.in.Rank(), g.n, g.ci, g.d, g.h, g.w)
	}
	weightGradRows(w.Grad.Data, grad.Data, s.in.Data, in2, g, lower)
	gin := s.bwd.get(shape...)
	s.adjoint(gin.Data, grad.Data, nil, w, g, lower)
	return gin
}

// transposedForward computes y = Wᵀ ⋆ x + b on the read grid of g.
func (s *convState) transposedForward(x *tensor.Tensor, train bool, w, b *Param, g geom, lower bool) *tensor.Tensor {
	if train {
		s.in = x
	}
	out := s.fwd.get(gridShape(x.Rank(), g.n, g.ci, g.d, g.h, g.w)...)
	s.adjoint(out.Data, x.Data, b.Data.Data, w, g, lower)
	return out
}

// transposedBackward accumulates the parameter gradients of
// transposedForward and returns the input gradient — a plain strided
// correlation of grad with W.
func (s *convState) transposedBackward(grad *tensor.Tensor, w, b *Param, g geom, lower bool) *tensor.Tensor {
	vol := g.d * g.h * g.w
	biasGrad(b.Grad.Data, grad.Data, g.n, vol, vol)
	weightGradRows(w.Grad.Data, s.in.Data, grad.Data, nil, g, lower)
	gin := s.bwd.get(s.in.Shape()...)
	correlateRows(gin.Data, grad.Data, w.Data.Data, nil, g, false)
	return gin
}

// heInitAny fills w with Kaiming-normal values for the given fan-in. It
// accepts any normal sampler, so layers can be seeded from *rand.Rand.
func heInitAny(rng interface{ NormFloat64() float64 }, w *tensor.Tensor, fanIn int) {
	std := 1.0
	if fanIn > 0 {
		std = math.Sqrt(2.0 / float64(fanIn))
	}
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64() * std
	}
}

// Conv2D is a 2D cross-correlation layer over NCHW tensors with zero
// padding. Weight layout is [Cout, Cin, KH, KW]. It runs the kernels of
// Conv3D at depth 1 (see geom).
//
// Forward reads input rows in place; with ConvAuto (the default) it adds
// the bias last and Backward runs the lowered orders — its GEMM input
// gradient beat the direct nests at every U-Net level size on this
// substrate — while ConvDirect pins the direct order, kept as the
// correctness oracle. Every output element
// accumulates its terms in a fixed order, so per-sample results are
// bit-identical regardless of batch composition, which the serving
// engine's coalescing relies on.
type Conv2D struct {
	InChannels  int
	OutChannels int
	Kernel      int
	Stride      int
	Pad         int

	// Algo selects the execution strategy; the zero value is ConvAuto.
	Algo ConvAlgo

	W *Param
	B *Param

	convState
}

// NewConv2D builds a 2D convolution with square kernels and He
// initialization appropriate for LeakyReLU networks.
func NewConv2D(rng interface{ NormFloat64() float64 }, name string, inCh, outCh, kernel, stride, pad int) *Conv2D {
	c := &Conv2D{
		InChannels:  inCh,
		OutChannels: outCh,
		Kernel:      kernel,
		Stride:      stride,
		Pad:         pad,
		W:           NewParam(name+".W", outCh, inCh, kernel, kernel),
		B:           NewParam(name+".B", outCh),
	}
	heInitAny(rng, c.W.Data, inCh*kernel*kernel)
	return c
}

// useGEMM decides whether a pass runs the lowered arithmetic (see
// ConvAuto). The lowered backward wins at every benchmarked size in 2D, so
// ConvAuto always lowers; ConvDirect is the opt-out.
func (c *Conv2D) useGEMM() bool { return c.Algo != ConvDirect }

func (c *Conv2D) geom(x, x2 *tensor.Tensor) geom {
	checkRank(x, 4, "Conv2D")
	return convGeom("Conv2D", x, x2, c.InChannels, c.OutChannels, 1, c.Kernel, 0, c.Pad, c.Stride)
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return c.forwardCat(x, nil, train, tail{})
}

func (c *Conv2D) forwardCat(x, x2 *tensor.Tensor, train bool, t tail) *tensor.Tensor {
	return c.convForward(x, x2, train, t, c.W, c.B, c.geom(x, x2), c.useGEMM())
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return c.convBackward(grad, c.W, c.B, c.geom(c.in, c.in2), c.useGEMM())
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// ConvTranspose2D is a 2D transposed convolution (fractionally strided
// convolution) over NCHW tensors. Weight layout is [Cin, Cout, KH, KW];
// the output extent for input n is (n-1)*stride - 2*pad + kernel.
//
// Like Conv2D, Algo selects the execution strategy: ConvAuto (default)
// lowers the forward to GEMM + col2im — the only forward that still builds
// a column matrix, because the row kernel measured slower for it at
// serving sizes — and sums the weight gradient in the lowered order;
// ConvDirect pins the row gather and the direct order, kept as the oracle. Both are bit-identical across batch compositions, matching the
// serving engine's coalescing contract.
type ConvTranspose2D struct {
	InChannels  int
	OutChannels int
	Kernel      int
	Stride      int
	Pad         int

	// Algo selects the execution strategy; the zero value is ConvAuto.
	Algo ConvAlgo

	W *Param
	B *Param

	convState
}

// NewConvTranspose2D builds a 2D transpose convolution with He init.
func NewConvTranspose2D(rng interface{ NormFloat64() float64 }, name string, inCh, outCh, kernel, stride, pad int) *ConvTranspose2D {
	c := &ConvTranspose2D{
		InChannels:  inCh,
		OutChannels: outCh,
		Kernel:      kernel,
		Stride:      stride,
		Pad:         pad,
		W:           NewParam(name+".W", inCh, outCh, kernel, kernel),
		B:           NewParam(name+".B", outCh),
	}
	heInitAny(rng, c.W.Data, inCh*kernel*kernel)
	return c
}

// useGEMM mirrors Conv2D: the lowering wins at every benchmarked size.
func (c *ConvTranspose2D) useGEMM() bool { return c.Algo != ConvDirect }

func (c *ConvTranspose2D) geom(x *tensor.Tensor) geom {
	checkRank(x, 4, "ConvTranspose2D")
	return transposedGeom("ConvTranspose2D", x, c.InChannels, c.OutChannels, 1, c.Kernel, 0, c.Pad, c.Stride)
}

// Forward implements Layer.
func (c *ConvTranspose2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return c.transposedForward(x, train, c.W, c.B, c.geom(x), c.useGEMM())
}

// Backward implements Layer.
func (c *ConvTranspose2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return c.transposedBackward(grad, c.W, c.B, c.geom(c.in), c.useGEMM())
}

// Params implements Layer.
func (c *ConvTranspose2D) Params() []*Param { return []*Param{c.W, c.B} }

// Conv3D is a 3D cross-correlation layer over NCDHW tensors with zero
// padding. Weight layout is [Cout, Cin, KD, KH, KW]. It is the volumetric
// kernel behind the paper's megavoxel 3D DiffNet.
//
// Forward reads input rows in place at every size. From the ConvAuto size
// threshold on it adds the bias last and Backward runs the lowered orders;
// below it the direct order remains, which is also the correctness oracle.
// Set Algo to pin either.
type Conv3D struct {
	InChannels  int
	OutChannels int
	Kernel      int
	Stride      int
	Pad         int
	// Algo selects the execution strategy; the zero value is ConvAuto.
	Algo ConvAlgo

	W *Param
	B *Param

	convState
}

// NewConv3D builds a cubic-kernel 3D convolution with He initialization.
func NewConv3D(rng interface{ NormFloat64() float64 }, name string, inCh, outCh, kernel, stride, pad int) *Conv3D {
	c := &Conv3D{
		InChannels:  inCh,
		OutChannels: outCh,
		Kernel:      kernel,
		Stride:      stride,
		Pad:         pad,
		W:           NewParam(name+".W", outCh, inCh, kernel, kernel, kernel),
		B:           NewParam(name+".B", outCh),
	}
	heInitAny(rng, c.W.Data, inCh*kernel*kernel*kernel)
	return c
}

// useGEMM decides whether a pass with vol output voxels per sample runs
// the lowered arithmetic.
func (c *Conv3D) useGEMM(vol int) bool {
	switch c.Algo {
	case ConvDirect:
		return false
	case ConvGEMM:
		return true
	}
	return vol >= conv3dGEMMMinVolume
}

func (c *Conv3D) geom(x, x2 *tensor.Tensor) geom {
	checkRank(x, 5, "Conv3D")
	return convGeom("Conv3D", x, x2, c.InChannels, c.OutChannels, c.Kernel, c.Kernel, c.Pad, c.Pad, c.Stride)
}

// Forward implements Layer.
func (c *Conv3D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return c.forwardCat(x, nil, train, tail{})
}

func (c *Conv3D) forwardCat(x, x2 *tensor.Tensor, train bool, t tail) *tensor.Tensor {
	g := c.geom(x, x2)
	return c.convForward(x, x2, train, t, c.W, c.B, g, c.useGEMM(g.do*g.ho*g.wo))
}

// Backward implements Layer.
func (c *Conv3D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := c.geom(c.in, c.in2)
	return c.convBackward(grad, c.W, c.B, g, c.useGEMM(g.do*g.ho*g.wo))
}

// Params implements Layer.
func (c *Conv3D) Params() []*Param { return []*Param{c.W, c.B} }

// ConvTranspose3D is a 3D transposed convolution over NCDHW tensors.
// Weight layout is [Cin, Cout, KD, KH, KW]. It never lowers: its forward
// is the row gather (adjointRows), its input gradient the row correlation
// and its weight gradient the direct order at every size, the arithmetic
// the training benchmark pins.
type ConvTranspose3D struct {
	InChannels  int
	OutChannels int
	Kernel      int
	Stride      int
	Pad         int

	W *Param
	B *Param

	convState
}

// NewConvTranspose3D builds a cubic-kernel 3D transpose convolution.
func NewConvTranspose3D(rng interface{ NormFloat64() float64 }, name string, inCh, outCh, kernel, stride, pad int) *ConvTranspose3D {
	c := &ConvTranspose3D{
		InChannels:  inCh,
		OutChannels: outCh,
		Kernel:      kernel,
		Stride:      stride,
		Pad:         pad,
		W:           NewParam(name+".W", inCh, outCh, kernel, kernel, kernel),
		B:           NewParam(name+".B", outCh),
	}
	heInitAny(rng, c.W.Data, inCh*kernel*kernel*kernel)
	return c
}

func (c *ConvTranspose3D) geom(x *tensor.Tensor) geom {
	checkRank(x, 5, "ConvTranspose3D")
	return transposedGeom("ConvTranspose3D", x, c.InChannels, c.OutChannels, c.Kernel, c.Kernel, c.Pad, c.Pad, c.Stride)
}

// Forward implements Layer.
func (c *ConvTranspose3D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return c.transposedForward(x, train, c.W, c.B, c.geom(x), false)
}

// Backward implements Layer.
func (c *ConvTranspose3D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return c.transposedBackward(grad, c.W, c.B, c.geom(c.in), false)
}

// Params implements Layer.
func (c *ConvTranspose3D) Params() []*Param { return []*Param{c.W, c.B} }
