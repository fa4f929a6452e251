// Package nn is a from-scratch neural-network substrate: 2D/3D convolution,
// transpose convolution, pooling, batch normalization, pointwise activations,
// and stochastic optimizers, all with hand-written backpropagation.
//
// It substitutes for the GPU deep-learning engine used by the MGDiffNet paper
// (see DESIGN.md). Layers follow a simple contract: Forward caches whatever
// Backward needs, Backward consumes the gradient of the loss with respect to
// the layer output and returns the gradient with respect to the layer input,
// accumulating parameter gradients along the way. All heavy kernels are
// parallelized with tensor.Parallel, which plays the role the paper's
// OpenMP/CUDA threads play inside one MPI rank.
package nn

import (
	"fmt"
	"math/rand"

	"mgdiffnet/internal/tensor"
)

// Param is a trainable tensor together with its gradient accumulator.
type Param struct {
	Name string
	Data *tensor.Tensor
	Grad *tensor.Tensor

	// arena/arenaIdx back-reference the Arena (if any) whose slabs back
	// Data and Grad; Adam uses them to detect when the whole parameter set
	// is one contiguous run and switch to the fused flat step.
	arena    *Arena
	arenaIdx int
}

// NewParam allocates a parameter and its zeroed gradient with the same shape.
func NewParam(name string, shape ...int) *Param {
	return &Param{
		Name: name,
		Data: tensor.New(shape...),
		Grad: tensor.New(shape...),
	}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// NumElements returns the parameter element count.
func (p *Param) NumElements() int { return p.Data.Len() }

// Layer is the module contract used by Sequential and the U-Net builder.
type Layer interface {
	// Forward computes the layer output. When train is true the layer may
	// cache activations for Backward and update running statistics.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes dLoss/dOutput and returns dLoss/dInput, adding
	// parameter gradients into Params().Grad. It must be called after a
	// Forward with train=true.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
}

// ZeroGrads clears the gradients of all parameters of the given layers.
func ZeroGrads(layers ...Layer) {
	for _, l := range layers {
		for _, p := range l.Params() {
			p.ZeroGrad()
		}
	}
}

// NewRNG returns a deterministic random source for weight initialization.
func NewRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Sequential chains layers; the output of each is the input of the next.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// inPlacer is implemented by pointwise layers that can overwrite their
// input with their output, bit for bit what Forward(x, false) returns.
type inPlacer interface{ forwardInPlace(x *tensor.Tensor) }

// convLayer is implemented by the convolutions whose write-out can take
// the channels of a second input after x's and apply a tail.
type convLayer interface {
	forwardCat(x, x2 *tensor.Tensor, train bool, t tail) *tensor.Tensor
}

// Forward applies every layer in order. At inference a convolution takes
// the BatchNorm and LeakyReLU that follow it into its write-out, and any
// other pointwise layer overwrites the tensor the previous layer produced
// instead of allocating its own output — never the Sequential's own input,
// which belongs to the caller (a layer such as Identity may hand it on
// unchanged). Either way the bits are those of running each layer alone.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return s.ForwardCat(x, nil, train)
}

// ForwardCat is Forward on the channel concatenation of x and x2 (nil: x
// alone), which it never builds: the first layer, a convolution, reads its
// input channels from x, then from x2. It is the U-Net decoder's skip
// merge; Backward returns the gradient of the concatenation.
func (s *Sequential) ForwardCat(x, x2 *tensor.Tensor, train bool) *tensor.Tensor {
	in := x
	for i := 0; i < len(s.Layers); i++ {
		l := s.Layers[i]
		if c, ok := l.(convLayer); ok {
			var t tail
			if !train {
				t, i = fuseTail(s.Layers, i)
			}
			x, x2 = c.forwardCat(x, x2, train, t), nil
			continue
		}
		if x2 != nil {
			panic(fmt.Sprintf("nn: Sequential.ForwardCat needs a convolution first, got %T", l))
		}
		if p, ok := l.(inPlacer); ok && !train && x != in {
			p.forwardInPlace(x)
			continue
		}
		x = l.Forward(x, train)
	}
	return x
}

// fuseTail returns the tail of the convolution layers[i] — the BatchNorm
// and then the LeakyReLU right after it, where they are — and the index of
// its last layer.
func fuseTail(layers []Layer, i int) (tail, int) {
	var t tail
	if i+1 < len(layers) {
		if bn, ok := layers[i+1].(*BatchNorm); ok {
			t.bn, i = bn, i+1
		}
	}
	if i+1 < len(layers) {
		if lr, ok := layers[i+1].(*LeakyReLU); ok {
			t.leaky, i = lr, i+1
		}
	}
	return t, i
}

// Backward propagates the gradient through the layers in reverse order.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params returns the concatenated parameters of all layers.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Append adds layers to the end of the chain.
func (s *Sequential) Append(layers ...Layer) { s.Layers = append(s.Layers, layers...) }

func checkRank(x *tensor.Tensor, rank int, who string) {
	if x.Rank() != rank {
		panic(fmt.Sprintf("nn: %s expects rank-%d input, got shape %v", who, rank, x.Shape()))
	}
}
