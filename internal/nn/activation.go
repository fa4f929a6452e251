package nn

import (
	"math"

	"mgdiffnet/internal/tensor"
)

// LeakyReLU is the pointwise activation max(x, alpha*x) used in all
// intermediate layers of the paper's U-Net.
type LeakyReLU struct {
	Alpha float64
	in    *tensor.Tensor

	fwd, bwd outBuf
}

// NewLeakyReLU returns a LeakyReLU with the given negative slope.
func NewLeakyReLU(alpha float64) *LeakyReLU { return &LeakyReLU{Alpha: alpha} }

func (l *LeakyReLU) setBufferReuse(on bool) { l.fwd.on, l.bwd.on = on, on }

// Forward implements Layer.
func (l *LeakyReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		l.in = x
	}
	out := l.fwd.get(x.Shape()...)
	leakyReLU(out.Data, x.Data, l.Alpha)
	return out
}

func (l *LeakyReLU) forwardInPlace(x *tensor.Tensor) { leakyReLU(x.Data, x.Data, l.Alpha) }

func leakyReLU(dst, src []float64, a float64) {
	tensor.Parallel(len(src), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := src[i]
			if v < 0 {
				v *= a
			}
			dst[i] = v
		}
	})
}

// Backward implements Layer.
func (l *LeakyReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := l.bwd.get(grad.Shape()...)
	a := l.Alpha
	in := l.in
	tensor.Parallel(grad.Len(), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g := grad.Data[i]
			if in.Data[i] < 0 {
				g *= a
			}
			out.Data[i] = g
		}
	})
	return out
}

// Params implements Layer.
func (l *LeakyReLU) Params() []*Param { return nil }

// Sigmoid is the logistic activation used on the paper's final layer so the
// predicted solution field lies in (0, 1), matching the Dirichlet data.
type Sigmoid struct {
	out *tensor.Tensor

	fwd, bwd outBuf
}

// NewSigmoid returns a Sigmoid layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

func (s *Sigmoid) setBufferReuse(on bool) { s.fwd.on, s.bwd.on = on, on }

// Forward implements Layer.
func (s *Sigmoid) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := s.fwd.get(x.Shape()...)
	sigmoid(out.Data, x.Data)
	if train {
		s.out = out
	}
	return out
}

func (s *Sigmoid) forwardInPlace(x *tensor.Tensor) { sigmoid(x.Data, x.Data) }

func sigmoid(dst, src []float64) {
	tensor.Parallel(len(src), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = 1.0 / (1.0 + math.Exp(-src[i]))
		}
	})
}

// Backward implements Layer.
func (s *Sigmoid) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := s.bwd.get(grad.Shape()...)
	y := s.out
	tensor.Parallel(grad.Len(), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := y.Data[i]
			out.Data[i] = grad.Data[i] * v * (1 - v)
		}
	})
	return out
}

// Params implements Layer.
func (s *Sigmoid) Params() []*Param { return nil }

// Identity passes its input through unchanged: the pass-through layer the
// tests use to exercise Sequential's input-aliasing guard.
type Identity struct{}

// NewIdentity returns an Identity layer.
func NewIdentity() *Identity { return &Identity{} }

// Forward implements Layer.
func (Identity) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return x }

// Backward implements Layer.
func (Identity) Backward(grad *tensor.Tensor) *tensor.Tensor { return grad }

// Params implements Layer.
func (Identity) Params() []*Param { return nil }
