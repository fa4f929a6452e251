package unet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mgdiffnet/internal/nn"
	"mgdiffnet/internal/tensor"
)

// layerByLayer is the inference forward with nothing fused: every layer of
// every block runs on its own and the decoder reads a concatenated copy
// of the up-path and skip tensors.
func layerByLayer(u *UNet, x *tensor.Tensor) *tensor.Tensor {
	run := func(layers []nn.Layer, h *tensor.Tensor) *tensor.Tensor {
		for _, l := range layers {
			h = l.Forward(h, false)
		}
		return h
	}
	skips := make([]*tensor.Tensor, u.Cfg.Depth)
	h := x
	for l := 0; l < u.Cfg.Depth; l++ {
		h = run(u.enc[l].seq.Layers, h)
		skips[l] = h.Clone()
		h = u.pool[l].Forward(h, false)
	}
	h = run(u.mid.seq.Layers, h)
	for i := 0; i < u.Cfg.Depth; i++ {
		h = u.up[i].Forward(h, false)
		h = run(u.dec[i].seq.Layers, concatChannels(h, skips[u.Cfg.Depth-1-i]))
	}
	h = run(u.refinement, h)
	return run(u.head.Layers, h)
}

// concatChannels joins a and b along the channel axis.
func concatChannels(a, b *tensor.Tensor) *tensor.Tensor {
	shape := append([]int(nil), a.Shape()...)
	shape[1] += b.Dim(1)
	out := tensor.New(shape...)
	n := a.Dim(0)
	sa, sb := a.Len()/n, b.Len()/n
	for bn := 0; bn < n; bn++ {
		copy(out.Data[bn*(sa+sb):], a.Data[bn*sa:(bn+1)*sa])
		copy(out.Data[bn*(sa+sb)+sa:], b.Data[bn*sb:(bn+1)*sb])
	}
	return out
}

// The inference forward fuses each block's BatchNorm and LeakyReLU into
// its convolution's write-out and reads the decoder's two inputs without a
// concatenated copy; neither may move a bit. 2D nets add the bias last,
// and first under DirectConv; 3D nets add it first below 32³ and last from
// there. BatchNorm's running statistics are drawn away from the identity,
// so its affine shows. Each runs at 1 and 4 kernel workers, with buffer
// reuse, and after an adaptation (whose convolution fuses the LeakyReLU
// after it, and whose other LeakyReLU runs in place).
func TestFusedInferenceMatchesLayerByLayer(t *testing.T) {
	for _, tc := range []struct {
		dim, res, batch int
		direct, bn      bool
	}{
		{2, 32, 2, false, true},
		{2, 16, 3, true, true},
		{2, 16, 1, false, false},
		{3, 16, 2, false, true},
		{3, 32, 1, false, true},
		{3, 16, 1, false, false},
	} {
		for _, procs := range []int{1, 4} {
			name := fmt.Sprintf("%dD/res%d/n%d/direct%v/bn%v/procs%d", tc.dim, tc.res, tc.batch, tc.direct, tc.bn, procs)
			t.Run(name, func(t *testing.T) {
				defer tensor.SetParallelism(tensor.SetParallelism(procs))
				cfg := DefaultConfig(tc.dim)
				cfg.BaseFilters, cfg.Depth, cfg.DirectConv, cfg.BatchNorm = 4, 2, tc.direct, tc.bn
				u := New(cfg)
				rng := rand.New(rand.NewSource(int64(tc.res + tc.dim)))
				for _, bn := range collectBN(u) {
					for c := range bn.RunningMean {
						bn.RunningMean[c], bn.RunningVar[c] = 0.1*rng.NormFloat64(), 0.5+rng.Float64()
						bn.Gamma.Data.Data[c], bn.Beta.Data.Data[c] = 1+0.2*rng.NormFloat64(), 0.1*rng.NormFloat64()
					}
				}
				shape := []int{tc.batch, 1, tc.res, tc.res}
				if tc.dim == 3 {
					shape = []int{tc.batch, 1, tc.res, tc.res, tc.res}
				}
				x := randInput(rng, shape...)
				for round := 0; round < 2; round++ {
					want := layerByLayer(u, x).Clone()
					got := u.Forward(x, false)
					for i := range want.Data {
						if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
							t.Fatalf("round %d: element %d is %v fused, %v layer by layer", round, i, got.Data[i], want.Data[i])
						}
					}
					u.SetBufferReuse(true)
					if round == 0 && tc.dim == 2 {
						u.Adapt()
					}
				}
			})
		}
	}
}
