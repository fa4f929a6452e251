package nn

import (
	"fmt"
	"math"

	"mgdiffnet/internal/tensor"
)

// ConvAlgo selects how a convolution layer executes its kernels.
type ConvAlgo int

// A convolution's forward pass runs the staged row kernel at every size
// and stride (correlateRows; a ConvTranspose's adjointRows, split by parity
// class at stride 2), and every weight gradient reads rows in place too
// (weightGradRows). What the algorithm selects is a Conv's order of the
// arithmetic: a lowered forward adds the bias after every tap instead of
// before, and a lowered backward sums the weight gradient in the blocked
// order of the GEMM it replaced and computes the input gradient as
// GEMM + col2im. A ConvTranspose never lowers.
const (
	// ConvAuto (the zero value) lowers a Dim-3 Conv once the output
	// volume reaches conv3dGEMMMinVolume, the order the 3D training bits
	// are pinned to, and nothing else.
	ConvAuto ConvAlgo = iota
	// ConvDirect forces the direct order — bias first, one sum per
	// weight-gradient element, the row gather for the input gradient — the
	// correctness oracle the lowering is tested against.
	ConvDirect
	// ConvGEMM forces the lowering regardless of size.
	ConvGEMM
)

// conv3dGEMMMinVolume is the per-sample output voxel count from which
// ConvAuto gives a Dim-3 Conv the lowered arithmetic: the bias enters its
// forward sums last and its backward runs the lowered orders. The forward
// and weight-gradient kernels are the same either way; the threshold stays
// because the training bits are pinned to it. It reads the per-sample
// volume only — not the batch size — so data-parallel batch sharding
// (dist.ParallelTrainer) cannot change which order a replica runs.
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
// outputs, the scratch of a lowered Conv's input gradient and the cached
// matrix view of the weights.
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
	if lower {
		s.lowerAdjoint(gin.Data, grad.Data, w, g)
	} else {
		adjointRows(gin.Data, grad.Data, w.Data.Data, nil, g)
	}
	return gin
}

// transposedForward computes y = Wᵀ ⋆ x + b on the read grid of g.
func (s *convState) transposedForward(x *tensor.Tensor, train bool, w, b *Param, g geom) *tensor.Tensor {
	if train {
		s.in = x
	}
	out := s.fwd.get(gridShape(x.Rank(), g.n, g.ci, g.d, g.h, g.w)...)
	adjointRows(out.Data, x.Data, w.Data.Data, b.Data.Data, g)
	return out
}

// transposedBackward accumulates the parameter gradients of
// transposedForward and returns the input gradient — a plain strided
// correlation of grad with W.
func (s *convState) transposedBackward(grad *tensor.Tensor, w, b *Param, g geom) *tensor.Tensor {
	vol := g.d * g.h * g.w
	biasGrad(b.Grad.Data, grad.Data, g.n, vol, vol)
	weightGradRows(w.Grad.Data, s.in.Data, grad.Data, nil, g, false)
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

// convNames and convTransposeNames label a layer's diagnostics by its
// rank, indexed by Dim-2: the geometry runs on every pass, and a formatted
// name would allocate.
var (
	convNames          = [2]string{"Conv2D", "Conv3D"}
	convTransposeNames = [2]string{"ConvTranspose2D", "ConvTranspose3D"}
)

// newConvParams allocates the [a, b, K…] weight (one K per spatial axis)
// and the outCh biases of a dim-dimensional layer. The weight is
// He-initialized for a fan-in of inCh·K^dim: its size over outCh, whichever
// of a and b is inCh.
func newConvParams(rng interface{ NormFloat64() float64 }, name string, dim, a, b, outCh, k int) (w, bias *Param) {
	if dim != 2 && dim != 3 {
		panic(fmt.Sprintf("nn: convolution dimension must be 2 or 3, got %d", dim))
	}
	w = NewParam(name+".W", []int{a, b, k, k, k}[:2+dim]...)
	heInitAny(rng, w.Data, w.NumElements()/outCh)
	return w, NewParam(name+".B", outCh)
}

// window checks that x has the rank of a dim-dimensional layer and returns
// the depth axis's kernel and padding: a 2D layer is the depth-1 case of a
// 3D one (see geom).
func window(x *tensor.Tensor, who string, dim, kernel, pad int) (kd, pd int) {
	if x.Rank() != dim+2 {
		panic(fmt.Sprintf("nn: %s expects rank-%d input, got shape %v", who, dim+2, x.Shape()))
	}
	if dim == 2 {
		return 1, 0
	}
	return kernel, pad
}

// Conv is a cross-correlation layer with zero padding over NCHW (Dim 2)
// or NCDHW (Dim 3) tensors, the volumetric kernel behind the paper's
// megavoxel 3D DiffNet. Weight layout is [Cout, Cin, K…]. Forward reads
// input rows in place at every size; Algo picks the order of the
// arithmetic (see ConvAlgo). Every output element accumulates its terms in
// a fixed order, so per-sample results are bit-identical regardless of
// batch composition, which the serving engine's coalescing relies on.
type Conv struct {
	Dim         int
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

// NewConv builds a dim-dimensional convolution with cubic kernels and He
// initialization appropriate for LeakyReLU networks.
func NewConv(rng interface{ NormFloat64() float64 }, name string, dim, inCh, outCh, kernel, stride, pad int) *Conv {
	c := &Conv{Dim: dim, InChannels: inCh, OutChannels: outCh, Kernel: kernel, Stride: stride, Pad: pad}
	c.W, c.B = newConvParams(rng, name, dim, outCh, inCh, outCh, kernel)
	return c
}

// NewConv2D is NewConv at Dim 2.
func NewConv2D(rng interface{ NormFloat64() float64 }, name string, inCh, outCh, kernel, stride, pad int) *Conv {
	return NewConv(rng, name, 2, inCh, outCh, kernel, stride, pad)
}

// NewConv3D is NewConv at Dim 3.
func NewConv3D(rng interface{ NormFloat64() float64 }, name string, inCh, outCh, kernel, stride, pad int) *Conv {
	return NewConv(rng, name, 3, inCh, outCh, kernel, stride, pad)
}

// lowers decides whether a pass over g runs the lowered arithmetic (see
// ConvAuto).
func (c *Conv) lowers(g geom) bool {
	switch c.Algo {
	case ConvDirect:
		return false
	case ConvGEMM:
		return true
	}
	return c.Dim == 3 && g.do*g.ho*g.wo >= conv3dGEMMMinVolume
}

func (c *Conv) geom(x, x2 *tensor.Tensor) geom {
	who := convNames[c.Dim-2]
	kd, pd := window(x, who, c.Dim, c.Kernel, c.Pad)
	return convGeom(who, x, x2, c.InChannels, c.OutChannels, kd, c.Kernel, pd, c.Pad, c.Stride)
}

// Forward implements Layer.
func (c *Conv) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return c.forwardCat(x, nil, train, tail{})
}

func (c *Conv) forwardCat(x, x2 *tensor.Tensor, train bool, t tail) *tensor.Tensor {
	g := c.geom(x, x2)
	return c.convForward(x, x2, train, t, c.W, c.B, g, c.lowers(g))
}

// Backward implements Layer.
func (c *Conv) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := c.geom(c.in, c.in2)
	return c.convBackward(grad, c.W, c.B, g, c.lowers(g))
}

// Params implements Layer.
func (c *Conv) Params() []*Param { return []*Param{c.W, c.B} }

// ConvTranspose is a transposed (fractionally strided) convolution over
// NCHW (Dim 2) or NCDHW (Dim 3) tensors. Weight layout is [Cin, Cout, K…];
// the output extent for input n is (n-1)*stride - 2*pad + kernel. Its
// forward is the row gather (adjointRows), bias first, and its weight
// gradient sums in the direct order, the arithmetic the training benchmark
// pins at Dim 3. Every output element sums in a fixed order, so results
// are bit-identical across batch compositions, matching the serving
// engine's coalescing contract.
type ConvTranspose struct {
	Dim         int
	InChannels  int
	OutChannels int
	Kernel      int
	Stride      int
	Pad         int

	W *Param
	B *Param

	convState
}

// NewConvTranspose builds a dim-dimensional transposed convolution with
// cubic kernels and He initialization.
func NewConvTranspose(rng interface{ NormFloat64() float64 }, name string, dim, inCh, outCh, kernel, stride, pad int) *ConvTranspose {
	c := &ConvTranspose{Dim: dim, InChannels: inCh, OutChannels: outCh, Kernel: kernel, Stride: stride, Pad: pad}
	c.W, c.B = newConvParams(rng, name, dim, inCh, outCh, outCh, kernel)
	return c
}

func (c *ConvTranspose) geom(x *tensor.Tensor) geom {
	who := convTransposeNames[c.Dim-2]
	kd, pd := window(x, who, c.Dim, c.Kernel, c.Pad)
	return transposedGeom(who, x, c.InChannels, c.OutChannels, kd, c.Kernel, pd, c.Pad, c.Stride)
}

// Forward implements Layer.
func (c *ConvTranspose) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return c.transposedForward(x, train, c.W, c.B, c.geom(x))
}

// Backward implements Layer.
func (c *ConvTranspose) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return c.transposedBackward(grad, c.W, c.B, c.geom(c.in))
}

// Params implements Layer.
func (c *ConvTranspose) Params() []*Param { return []*Param{c.W, c.B} }
