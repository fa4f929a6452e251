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

func (m *MaxPool) setBufferReuse(on bool)     { m.fwd.on, m.bwd.on = on, on }
func (m *MaxPool) setOutput(t *tensor.Tensor) { m.fwd.set = t }

// Forward implements Layer.
func (m *MaxPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return m.forward(x, train, windowDepth(x, m.K))
}

// forward pools over kd×K×K windows. Training records each window's
// argmax for Backward; inference takes maxima only.
func (m *MaxPool) forward(x *tensor.Tensor, train bool, kd int) *tensor.Tensor {
	d, h, w := gridOf(x, "MaxPool")
	k := m.K
	do, ho, wo := d/kd, h/k, w/k
	out := m.fwd.get(gridShape(x.Rank(), x.Dim(0), x.Dim(1), do, ho, wo)...)
	xd, od := x.Data, out.Data
	if !train {
		tensor.Parallel(x.Dim(0)*x.Dim(1)*do*ho, wo*kd*k*k, func(lo, hi int) {
			for job := lo; job < hi; job++ {
				nc, oz, oy := job/(do*ho), job/ho%do, job%ho
				maxRow(od[job*wo:][:wo], xd[((nc*d+oz*kd)*h+oy*k)*w:], kd, k, h, w)
			}
		})
		return out
	}
	// The argmax scratch is private to the layer (never escapes), so it
	// is recycled unconditionally.
	if cap(m.argmax) < out.Len() {
		m.argmax = make([]int32, out.Len())
	}
	arg := m.argmax[:out.Len()]
	m.inShp = append(m.inShp[:0], x.Shape()...)
	tensor.Parallel(x.Dim(0)*x.Dim(1)*do*ho, wo*kd*k*k, func(lo, hi int) {
		for job := lo; job < hi; job++ {
			nc, oz, oy := job/(do*ho), job/ho%do, job%ho
			base := ((nc*d+oz*kd)*h + oy*k) * w
			for ox := 0; ox < wo; ox++ {
				// A window with no value above −Inf keeps its first element,
				// so every window's argmax lies inside it.
				best := math.Inf(-1)
				bestIdx := base + ox*k
				for kz := 0; kz < kd; kz++ {
					for ky := 0; ky < k; ky++ {
						row := base + (kz*h+ky)*w + ox*k
						for kx := 0; kx < k; kx++ {
							if v := xd[row+kx]; v > best {
								best = v
								bestIdx = row + kx
							}
						}
					}
				}
				od[job*wo+ox] = best
				arg[job*wo+ox] = int32(bestIdx)
			}
		}
	})
	return out
}

// maxRowVec, if a CPU probe at start-up sets it, is maxRow's loop for
// k = 2 over a multiple-of-4 prefix of out, with the same bits: its
// arguments are w and h·w for maxRow's w and h.
var maxRowVec func(out, x []float64, w, hw, kd int)

// maxRow writes to out the maxima of the len(out) k-wide windows of the
// kd×k input rows that start at x, planes h rows of w apart, scanned
// kz → ky → kx from −Inf, keeping the first of equal values: the
// training nest's maxima, NaN, ±0 and ties included.
func maxRow(out, x []float64, kd, k, h, w int) {
	if m := len(out) &^ 3; m > 0 && k == 2 && maxRowVec != nil {
		_ = x[(kd-1)*h*w+w+2*m-1] // the kernel reads 2m columns of each row
		maxRowVec(out[:m], x, w, h*w, kd)
		out, x = out[m:], x[2*m:]
	}
	for i := range out {
		out[i] = math.Inf(-1)
	}
	for kz := 0; kz < kd; kz++ {
		for ky := 0; ky < k; ky++ {
			row := x[(kz*h+ky)*w:][:len(out)*k]
			for i, best := range out {
				for _, v := range row[i*k:][:k] {
					if v > best {
						best = v
					}
				}
				out[i] = best
			}
		}
	}
}

// Backward implements Layer: the gradient flows to the argmax positions.
// Windows are disjoint (K == stride) and each argmax lies inside its
// window, so output rows scatter to disjoint inputs and split over
// workers without changing a bit.
func (m *MaxPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	gin := m.bwd.getZero(m.inShp...) // scatter-adds below
	wo := grad.Dim(grad.Rank() - 1)
	gd, arg := grad.Data, m.argmax[:grad.Len()]
	tensor.Parallel(grad.Len()/max(wo, 1), wo, func(lo, hi int) {
		for job := lo; job < hi; job++ {
			for i := job * wo; i < (job+1)*wo; i++ {
				gin.Data[arg[i]] += gd[i]
			}
		}
	})
	return gin
}

// Params implements Layer.
func (m *MaxPool) Params() []*Param { return nil }

// AvgPoolApply average-pools x (rank 4 or 5) with window and stride k; it
// is the restriction core.RestrictInput applies to coarsen input fields.
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
	tensor.Parallel(x.Dim(0)*x.Dim(1), do*ho*wo*kd*k*k, func(lo, hi int) {
		for job := lo; job < hi; job++ {
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
		}
	})
	return out
}
