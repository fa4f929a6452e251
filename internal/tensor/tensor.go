// Package tensor provides dense n-dimensional float64 tensors and the
// parallel element kernels used throughout the MGDiffNet reproduction.
//
// Tensors are stored in row-major (C) order in a single flat slice. The
// layouts used by the neural-network layers are NCHW for 2D fields and
// NCDHW for 3D fields, where N is the batch dimension and C the channel
// dimension. The package is deliberately small: shape algebra, element
// access, BLAS-1 style kernels, the GEMM kernels, and the fan-out the
// convolution and FEM kernels build on: Parallel, which sizes its serial
// cutoff by work and lets workers claim chunks from one shared counter,
// and ParallelReduce for sums.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense, row-major n-dimensional array of float64.
//
// The zero value is not usable; construct tensors with New, Zeros, Full,
// FromSlice or the arithmetic helpers. Data is shared on slicing-style
// operations (View) and copied by Clone.
type Tensor struct {
	shape  []int
	stride []int
	Data   []float64
}

// New allocates a zero-filled tensor with the given shape.
// It panics if any dimension is non-positive. Neither the tensor nor the
// panic message holds on to shape itself (the message formats a copy), so
// a caller's shape slice can live on its stack.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	t := &Tensor{
		shape: append([]int(nil), shape...),
		Data:  make([]float64, n),
	}
	t.stride = computeStrides(t.shape)
	return t
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the shape volume.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (volume %d)", len(data), shape, n))
	}
	t := &Tensor{
		shape: append([]int(nil), shape...),
		Data:  data[:n:n], // ResizeBatch never grows a view into storage beyond it
	}
	t.stride = computeStrides(t.shape)
	return t
}

// Full allocates a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

func computeStrides(shape []int) []int {
	s := make([]int, len(shape))
	fillStrides(s, shape)
	return s
}

// fillStrides writes shape's row-major strides into s.
func fillStrides(s, shape []int) {
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= shape[i]
	}
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified by the caller.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Stride returns the row-major stride of dimension i.
func (t *Tensor) Stride(i int) int { return t.stride[i] }

// ShapeIs reports whether t's shape equals the given dimensions.
func (t *Tensor) ShapeIs(shape ...int) bool {
	if len(t.shape) != len(shape) {
		return false
	}
	for i, d := range shape {
		if t.shape[i] != d {
			return false
		}
	}
	return true
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i, d := range t.shape {
		if o.shape[i] != d {
			return false
		}
	}
	return true
}

// Offset converts a multi-index into a flat offset. It performs no bounds
// checking beyond the index arity.
func (t *Tensor) Offset(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index arity %d does not match rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, ix := range idx {
		off += ix * t.stride[i]
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.Offset(idx...)] }

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.Offset(idx...)] = v }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of t with a new shape of equal volume.
// The underlying data is shared.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape volume %d to %v", len(t.Data), shape))
	}
	return FromSlice(t.Data, shape...)
}

// Rebase re-points the tensor at a new backing slice of identical length,
// keeping shape and strides. It is the primitive behind arena allocation
// (nn.Arena): a set of tensors can be re-backed by disjoint views into one
// contiguous slab so that bulk operations (zeroing, optimizer sweeps,
// allreduce) run over a single flat range. The caller is responsible for
// the aliasing this creates; data is not copied.
func (t *Tensor) Rebase(data []float64) {
	if len(data) != len(t.Data) {
		panic(fmt.Sprintf("tensor: Rebase length %d does not match tensor volume %d", len(data), len(t.Data)))
	}
	t.Data = data[:len(data):len(data)]
}

// Reframe re-points t at data with a new shape of t's rank, in place: it
// is FromSlice for a view that outlives its shape, so a scratch matrix
// whose extent changes from pass to pass (nn's lowered-convolution
// buffers) follows it without allocating. len(data) must equal the
// shape's volume.
func (t *Tensor) Reframe(data []float64, shape ...int) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(shape) != len(t.shape) || len(data) != n {
		panic(fmt.Sprintf("tensor: cannot reframe rank-%d tensor as %v over %d values", len(t.shape), append([]int(nil), shape...), len(data)))
	}
	copy(t.shape, shape)
	fillStrides(t.stride, t.shape)
	t.Data = data[:n:n]
}

// ResizeBatch re-shapes t in place to shape when shape differs from t's
// shape at most in dim 0 and t's storage has the capacity for it, and
// reports whether it did; otherwise t is left as it is. It never
// allocates, so a buffer sized for the largest batch serves every smaller
// one: shrinking reslices Data, growing back reclaims the storage the
// shrink kept. Elements a grow brings back hold whatever they held last.
// Any other change of shape is refused, so a caller that allocates on
// refusal gets a fresh buffer for every change but the batch size.
func (t *Tensor) ResizeBatch(shape ...int) bool {
	if len(shape) != len(t.shape) || len(shape) == 0 || shape[0] <= 0 {
		return false
	}
	for i := 1; i < len(shape); i++ {
		if shape[i] != t.shape[i] {
			return false
		}
	}
	n := shape[0] * t.stride[0]
	if n > cap(t.Data) {
		return false
	}
	t.shape[0] = shape[0]
	t.Data = t.Data[:n]
	return true
}

// Zero sets every element to zero.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// CopyFrom copies o's data into t. Shapes must match.
func (t *Tensor) CopyFrom(o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %v vs %v", t.shape, o.shape))
	}
	copy(t.Data, o.Data)
}

// Add accumulates o into t element-wise. Shapes must match.
func (t *Tensor) Add(o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: Add shape mismatch %v vs %v", t.shape, o.shape))
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// Sub subtracts o from t element-wise. Shapes must match.
func (t *Tensor) Sub(o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: Sub shape mismatch %v vs %v", t.shape, o.shape))
	}
	for i, v := range o.Data {
		t.Data[i] -= v
	}
}

// Scale multiplies every element by a.
func (t *Tensor) Scale(a float64) {
	for i := range t.Data {
		t.Data[i] *= a
	}
}

// Dot returns the inner product of t and o viewed as flat vectors.
func (t *Tensor) Dot(o *Tensor) float64 {
	if len(t.Data) != len(o.Data) {
		panic("tensor: Dot length mismatch")
	}
	s := 0.0
	for i, v := range t.Data {
		s += v * o.Data[i]
	}
	return s
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 { return t.Sum() / float64(len(t.Data)) }

// Max returns the maximum element.
func (t *Tensor) Max() float64 {
	m := math.Inf(-1)
	for _, v := range t.Data {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element.
func (t *Tensor) Min() float64 {
	m := math.Inf(1)
	for _, v := range t.Data {
		if v < m {
			m = v
		}
	}
	return m
}

// AbsMax returns the maximum absolute element value (L-infinity norm).
func (t *Tensor) AbsMax() float64 {
	m := 0.0
	for _, v := range t.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Norm2 returns the Euclidean norm of the flattened tensor.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// RMSE returns the root-mean-square difference between t and o.
func (t *Tensor) RMSE(o *Tensor) float64 {
	if len(t.Data) != len(o.Data) {
		panic("tensor: RMSE length mismatch")
	}
	s := 0.0
	for i, v := range t.Data {
		d := v - o.Data[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(t.Data)))
}

// String renders a compact description (shape and a few leading values),
// suitable for debugging rather than full dumps of megavoxel fields.
func (t *Tensor) String() string {
	n := len(t.Data)
	if n > 8 {
		n = 8
	}
	return fmt.Sprintf("Tensor%v%v…", t.shape, t.Data[:n])
}
