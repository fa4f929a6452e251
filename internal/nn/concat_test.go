package nn

import (
	"fmt"

	"mgdiffnet/internal/tensor"
)

// ConcatChannels joins a and b along the channel axis (axis 1). Both
// tensors must agree on every other dimension. It is the oracle for the
// skip-connection merge the decoder convolution reads without building
// (Sequential.ForwardCat).
func ConcatChannels(a, b *tensor.Tensor) *tensor.Tensor {
	return ConcatChannelsInto(nil, a, b)
}

// ConcatChannelsInto is ConcatChannels writing into dst when dst already
// has the concatenated shape; a nil or mismatched dst is replaced by a
// fresh tensor.
func ConcatChannelsInto(dst, a, b *tensor.Tensor) *tensor.Tensor {
	if a.Rank() != b.Rank() {
		panic("nn: ConcatChannels rank mismatch")
	}
	for i := 0; i < a.Rank(); i++ {
		if i == 1 {
			continue
		}
		if a.Dim(i) != b.Dim(i) {
			panic(fmt.Sprintf("nn: ConcatChannels dim %d mismatch: %v vs %v", i, a.Shape(), b.Shape()))
		}
	}
	n := a.Dim(0)
	ca, cb := a.Dim(1), b.Dim(1)
	spatial := a.Len() / (n * ca)

	out := dst
	if !shapeMatchesWithChannels(out, a, ca+cb) {
		shape := append([]int(nil), a.Shape()...)
		shape[1] = ca + cb
		out = tensor.New(shape...)
	}
	for bn := 0; bn < n; bn++ {
		dstA := out.Data[bn*(ca+cb)*spatial : (bn*(ca+cb)+ca)*spatial]
		srcA := a.Data[bn*ca*spatial : (bn+1)*ca*spatial]
		copy(dstA, srcA)
		dstB := out.Data[(bn*(ca+cb)+ca)*spatial : (bn+1)*(ca+cb)*spatial]
		srcB := b.Data[bn*cb*spatial : (bn+1)*cb*spatial]
		copy(dstB, srcB)
	}
	return out
}
