package nn

import (
	"math"

	"mgdiffnet/internal/tensor"
)

// windowDepth is the depth of a k-wide pooling window over x: k over an
// NCDHW volume, 1 over an NCHW image — the depth-1 case of the same kernel,
// like the convolutions (see geom).
func windowDepth(x *tensor.Tensor, k int) int {
	if x.Rank() == 4 {
		return 1
	}
	return k
}

// MaxPool is a max-pooling layer with kernel == stride (the paper's
// downsampling is always a factor of two, property 2 of §3.1.2). It accepts
// both NCHW (rank 4) and NCDHW (rank 5) inputs.
type MaxPool struct {
	K      int
	argmax []int32
	inShp  []int

	fwd, bwd outBuf
}

// NewMaxPool builds a max-pooling layer with window and stride k.
func NewMaxPool(k int) *MaxPool { return &MaxPool{K: k} }

func (m *MaxPool) setBufferReuse(on bool) { m.fwd.on, m.bwd.on = on, on }

// Forward implements Layer.
func (m *MaxPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return m.forward(x, train, windowDepth(x, m.K))
}

// forward pools over kd×K×K windows.
func (m *MaxPool) forward(x *tensor.Tensor, train bool, kd int) *tensor.Tensor {
	d, h, w := gridOf(x, "MaxPool")
	k := m.K
	do, ho, wo := d/kd, h/k, w/k
	out := m.fwd.get(gridShape(x.Rank(), x.Dim(0), x.Dim(1), do, ho, wo)...)
	var arg []int32
	if train {
		// The argmax scratch is private to the layer (never escapes), so it
		// is recycled unconditionally.
		if cap(m.argmax) < out.Len() {
			m.argmax = make([]int32, out.Len())
		}
		arg = m.argmax[:out.Len()]
		m.inShp = append(m.inShp[:0], x.Shape()...)
	}
	xd, od := x.Data, out.Data
	tensor.ParallelFor(x.Dim(0)*x.Dim(1), func(job int) {
		inBase := job * d * h * w
		outBase := job * do * ho * wo
		for oz := 0; oz < do; oz++ {
			for oy := 0; oy < ho; oy++ {
				for ox := 0; ox < wo; ox++ {
					best := math.Inf(-1)
					bestIdx := 0
					for kz := 0; kz < kd; kz++ {
						for ky := 0; ky < k; ky++ {
							row := inBase + ((oz*kd+kz)*h+oy*k+ky)*w + ox*k
							for kx := 0; kx < k; kx++ {
								if v := xd[row+kx]; v > best {
									best = v
									bestIdx = row + kx
								}
							}
						}
					}
					o := outBase + (oz*ho+oy)*wo + ox
					od[o] = best
					if arg != nil {
						arg[o] = int32(bestIdx)
					}
				}
			}
		}
	})
	return out
}

// Backward implements Layer: the gradient flows to the argmax positions.
func (m *MaxPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	gin := m.bwd.getZero(m.inShp...) // scatter-adds below
	arg := m.argmax[:grad.Len()]
	for i, g := range grad.Data {
		gin.Data[arg[i]] += g
	}
	return gin
}

// Params implements Layer.
func (m *MaxPool) Params() []*Param { return nil }

// AvgPool is an average-pooling layer with kernel == stride. Besides its
// use as a network layer, it is the multigrid restriction operator that
// coarsens diffusivity fields between training levels.
type AvgPool struct {
	K     int
	inShp []int
	kd    int
}

// NewAvgPool builds an average-pooling layer with window and stride k.
func NewAvgPool(k int) *AvgPool { return &AvgPool{K: k} }

// Forward implements Layer.
func (a *AvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return a.forward(x, train, windowDepth(x, a.K))
}

func (a *AvgPool) forward(x *tensor.Tensor, train bool, kd int) *tensor.Tensor {
	if train {
		a.inShp = append([]int(nil), x.Shape()...)
		a.kd = kd
	}
	return avgPool(x, kd, a.K)
}

// AvgPoolApply average-pools x (rank 4 or 5) with window and stride k
// without caching anything; it is the functional form used for restriction.
func AvgPoolApply(x *tensor.Tensor, k int) *tensor.Tensor {
	return avgPool(x, windowDepth(x, k), k)
}

// avgPool averages over kd×k×k windows.
func avgPool(x *tensor.Tensor, kd, k int) *tensor.Tensor {
	d, h, w := gridOf(x, "AvgPool")
	do, ho, wo := d/kd, h/k, w/k
	out := tensor.New(gridShape(x.Rank(), x.Dim(0), x.Dim(1), do, ho, wo)...)
	inv := 1.0 / float64(kd*k*k)
	xd, od := x.Data, out.Data
	tensor.ParallelFor(x.Dim(0)*x.Dim(1), func(job int) {
		inBase := job * d * h * w
		outBase := job * do * ho * wo
		for oz := 0; oz < do; oz++ {
			for oy := 0; oy < ho; oy++ {
				for ox := 0; ox < wo; ox++ {
					s := 0.0
					for kz := 0; kz < kd; kz++ {
						for ky := 0; ky < k; ky++ {
							row := inBase + ((oz*kd+kz)*h+oy*k+ky)*w + ox*k
							for kx := 0; kx < k; kx++ {
								s += xd[row+kx]
							}
						}
					}
					od[outBase+(oz*ho+oy)*wo+ox] = s * inv
				}
			}
		}
	})
	return out
}

// Backward implements Layer: the gradient is spread uniformly over each
// pooling window.
func (a *AvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	k, kd := a.K, a.kd
	gin := tensor.New(a.inShp...)
	d, h, w := gridOf(gin, "AvgPool")
	do, ho, wo := gridOf(grad, "AvgPool")
	inv := 1.0 / float64(kd*k*k)
	tensor.ParallelFor(gin.Dim(0)*gin.Dim(1), func(job int) {
		inBase := job * d * h * w
		outBase := job * do * ho * wo
		for oz := 0; oz < do; oz++ {
			for oy := 0; oy < ho; oy++ {
				for ox := 0; ox < wo; ox++ {
					g := grad.Data[outBase+(oz*ho+oy)*wo+ox] * inv
					for kz := 0; kz < kd; kz++ {
						for ky := 0; ky < k; ky++ {
							row := inBase + ((oz*kd+kz)*h+oy*k+ky)*w + ox*k
							for kx := 0; kx < k; kx++ {
								gin.Data[row+kx] += g
							}
						}
					}
				}
			}
		}
	})
	return gin
}

// Params implements Layer.
func (a *AvgPool) Params() []*Param { return nil }
