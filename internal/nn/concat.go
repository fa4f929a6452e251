package nn

import (
	"fmt"

	"mgdiffnet/internal/tensor"
)

// SplitChannels is the adjoint of the channel concatenation a U-Net decoder
// convolution reads (Sequential.ForwardCat): it splits grad into the
// gradients for the first ca channels and the remaining cb channels.
func SplitChannels(grad *tensor.Tensor, ca, cb int) (ga, gb *tensor.Tensor) {
	return SplitChannelsInto(nil, nil, grad, ca, cb)
}

// SplitChannelsInto is SplitChannels writing into dstA/dstB when they
// already have the split shapes; nil or mismatched destinations are
// replaced by fresh tensors.
func SplitChannelsInto(dstA, dstB, grad *tensor.Tensor, ca, cb int) (ga, gb *tensor.Tensor) {
	n := grad.Dim(0)
	if grad.Dim(1) != ca+cb {
		panic(fmt.Sprintf("nn: SplitChannels expects %d channels, got %d", ca+cb, grad.Dim(1)))
	}
	spatial := grad.Len() / (n * (ca + cb))
	ga, gb = dstA, dstB
	if !shapeMatchesWithChannels(ga, grad, ca) {
		shapeA := append([]int(nil), grad.Shape()...)
		shapeA[1] = ca
		ga = tensor.New(shapeA...)
	}
	if !shapeMatchesWithChannels(gb, grad, cb) {
		shapeB := append([]int(nil), grad.Shape()...)
		shapeB[1] = cb
		gb = tensor.New(shapeB...)
	}
	for bn := 0; bn < n; bn++ {
		copy(ga.Data[bn*ca*spatial:(bn+1)*ca*spatial],
			grad.Data[bn*(ca+cb)*spatial:(bn*(ca+cb)+ca)*spatial])
		copy(gb.Data[bn*cb*spatial:(bn+1)*cb*spatial],
			grad.Data[(bn*(ca+cb)+ca)*spatial:(bn+1)*(ca+cb)*spatial])
	}
	return ga, gb
}

// shapeMatchesWithChannels reports whether t has ref's shape with the
// channel dimension replaced by ch — without materializing the target
// shape, so reuse hits stay allocation-free.
func shapeMatchesWithChannels(t, ref *tensor.Tensor, ch int) bool {
	if t == nil || t.Rank() != ref.Rank() || t.Dim(1) != ch {
		return false
	}
	for i := 0; i < ref.Rank(); i++ {
		if i != 1 && t.Dim(i) != ref.Dim(i) {
			return false
		}
	}
	return true
}
