package nn

import (
	"math"

	"mgdiffnet/internal/tensor"
)

// BatchNorm normalizes activations per channel over the batch and spatial
// dimensions, as in each convolution block of the paper's U-Net. It handles
// both NCHW and NCDHW inputs since only the channel axis matters.
type BatchNorm struct {
	Channels float64 // retained for introspection; set from C at construction
	C        int
	Momentum float64
	Epsilon  float64

	Gamma *Param
	Beta  *Param

	// Running statistics used at inference time.
	RunningMean []float64
	RunningVar  []float64

	// Caches from the last training forward pass.
	in      *tensor.Tensor
	xhat    []float64
	mean    []float64
	invStd  []float64
	spatial int
}

// NewBatchNorm builds a batch-normalization layer over c channels with the
// conventional momentum 0.1 and epsilon 1e-5. Gamma starts at 1, beta at 0.
func NewBatchNorm(name string, c int) *BatchNorm {
	b := &BatchNorm{
		C:           c,
		Channels:    float64(c),
		Momentum:    0.1,
		Epsilon:     1e-5,
		Gamma:       NewParam(name+".gamma", c),
		Beta:        NewParam(name+".beta", c),
		RunningMean: make([]float64, c),
		RunningVar:  make([]float64, c),
	}
	b.Gamma.Data.Fill(1)
	for i := range b.RunningVar {
		b.RunningVar[i] = 1
	}
	return b
}

// Forward implements Layer.
func (b *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, spatial := b.dims(x)
	out := tensor.New(x.Shape()...)
	gamma, beta := b.Gamma.Data.Data, b.Beta.Data.Data

	if !train {
		b.infer(out.Data, x.Data, n, c, spatial)
		return out
	}

	b.in = x
	b.spatial = spatial
	b.mean = make([]float64, c)
	b.invStd = make([]float64, c)
	b.xhat = make([]float64, x.Len())
	m := float64(n * spatial)

	tensor.Parallel(c, 3*n*spatial, func(lo, hi int) {
		for ch := lo; ch < hi; ch++ {
			sum := 0.0
			for bn := 0; bn < n; bn++ {
				base := (bn*c + ch) * spatial
				for i := 0; i < spatial; i++ {
					sum += x.Data[base+i]
				}
			}
			mu := sum / m
			varSum := 0.0
			for bn := 0; bn < n; bn++ {
				base := (bn*c + ch) * spatial
				for i := 0; i < spatial; i++ {
					d := x.Data[base+i] - mu
					varSum += d * d
				}
			}
			v := varSum / m
			inv := 1.0 / math.Sqrt(v+b.Epsilon)
			b.mean[ch] = mu
			b.invStd[ch] = inv
			b.RunningMean[ch] = (1-b.Momentum)*b.RunningMean[ch] + b.Momentum*mu
			b.RunningVar[ch] = (1-b.Momentum)*b.RunningVar[ch] + b.Momentum*v
			g, bt := gamma[ch], beta[ch]
			for bn := 0; bn < n; bn++ {
				base := (bn*c + ch) * spatial
				for i := 0; i < spatial; i++ {
					xh := (x.Data[base+i] - mu) * inv
					b.xhat[base+i] = xh
					out.Data[base+i] = g*xh + bt
				}
			}
		}
	})
	return out
}

// forwardInPlace overwrites x with Forward(x, false).
func (b *BatchNorm) forwardInPlace(x *tensor.Tensor) {
	n, c, spatial := b.dims(x)
	b.infer(x.Data, x.Data, n, c, spatial)
}

// dims returns x's batch size, channel count and per-channel volume, and
// rejects an input BatchNorm cannot take.
func (b *BatchNorm) dims(x *tensor.Tensor) (n, c, spatial int) {
	if x.Rank() < 3 {
		panic("nn: BatchNorm expects at least rank-3 input (N, C, spatial...)")
	}
	n, c = x.Dim(0), x.Dim(1)
	if c != b.C {
		panic("nn: BatchNorm channel mismatch")
	}
	return n, c, x.Len() / (n * c)
}

// infer writes the inference normalization of src, with the running
// statistics, to dst, which may be src. Each product is rounded on its
// own, float64(·), so no compiler fuses one into a multiply-add: a
// convolution's write-out runs the same operations (epilogue) where this
// layer follows one, and the two must give the same bits on every
// architecture.
func (b *BatchNorm) infer(dst, src []float64, n, c, spatial int) {
	gamma, beta := b.Gamma.Data.Data, b.Beta.Data.Data
	tensor.Parallel(c, n*spatial, func(lo, hi int) {
		for ch := lo; ch < hi; ch++ {
			mu := b.RunningMean[ch]
			inv := 1.0 / math.Sqrt(b.RunningVar[ch]+b.Epsilon)
			g, bt := gamma[ch], beta[ch]
			for bn := 0; bn < n; bn++ {
				base := (bn*c + ch) * spatial
				for i := 0; i < spatial; i++ {
					dst[base+i] = float64(float64(g*(src[base+i]-mu))*inv) + bt
				}
			}
		}
	})
}

// Backward implements Layer using the standard batch-norm gradient:
// dx = gamma*invStd/m * (m*dy - sum(dy) - xhat*sum(dy*xhat)).
func (b *BatchNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := b.in
	n, c, spatial := x.Dim(0), b.C, b.spatial
	m := float64(n * spatial)
	gin := tensor.New(x.Shape()...)
	gGamma, gBeta := b.Gamma.Grad.Data, b.Beta.Grad.Data
	gamma := b.Gamma.Data.Data

	tensor.Parallel(c, 2*n*spatial, func(lo, hi int) {
		for ch := lo; ch < hi; ch++ {
			sumDy, sumDyXhat := 0.0, 0.0
			for bn := 0; bn < n; bn++ {
				base := (bn*c + ch) * spatial
				for i := 0; i < spatial; i++ {
					dy := grad.Data[base+i]
					sumDy += dy
					sumDyXhat += dy * b.xhat[base+i]
				}
			}
			gGamma[ch] += sumDyXhat
			gBeta[ch] += sumDy
			scale := gamma[ch] * b.invStd[ch] / m
			for bn := 0; bn < n; bn++ {
				base := (bn*c + ch) * spatial
				for i := 0; i < spatial; i++ {
					dy := grad.Data[base+i]
					gin.Data[base+i] = scale * (m*dy - sumDy - b.xhat[base+i]*sumDyXhat)
				}
			}
		}
	})
	return gin
}

// Params implements Layer.
func (b *BatchNorm) Params() []*Param { return []*Param{b.Gamma, b.Beta} }
