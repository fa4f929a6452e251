// The race detector allocates on goroutine start and synchronization, so
// allocation counts mean nothing under it.

//go:build !race

package dist

import (
	"testing"

	"mgdiffnet/internal/tensor"
	"mgdiffnet/internal/unet"
)

// A warm ForwardInto with a held output allocates nothing of its own but
// one closure per forked slab worker (the last slab runs on the caller):
// everything else is the replicas' own forwards, measured on a warm clone.
func TestSpatialInferenceSteadyStateAllocs(t *testing.T) {
	defer tensor.SetParallelism(tensor.SetParallelism(1))
	cfg := unet.DefaultConfig(2)
	cfg.BaseFilters = 4
	cfg.Depth = 2
	net := unet.New(cfg)
	x := spatialTestInput(2, 48)
	replica := net.Clone()
	replica.SetBufferReuse(true)
	replica.Forward(x, false)
	perForward := testing.AllocsPerRun(5, func() { replica.Forward(x, false) })
	for _, workers := range []int{1, 2, 3, 4} {
		si, err := NewSpatialInference(net, workers, HaloFor(net))
		if err != nil {
			t.Fatal(err)
		}
		dst, err := si.ForwardInto(nil, x)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(5, func() {
			if _, err := si.ForwardInto(dst, x); err != nil {
				t.Fatal(err)
			}
		})
		if own := got - float64(workers)*perForward; own > float64(workers-1) {
			t.Errorf("workers=%d: %v allocations per pass, %v beyond %d replica forwards of %v; want at most %d",
				workers, got, own, workers, perForward, workers-1)
		}
	}
}

// The replica forward the test above measures: a warm inference forward of
// the 2D BaseFilters-4 depth-2 net at 48², one worker. Its 15 objects are
// the closures the kernels of the convolutions, max-pools, up-convolutions
// and the Sigmoid hand tensor.Parallel. The layers check their held outputs'
// shapes in place, BatchNorm and LeakyReLU run in their convolution's
// write-out, and the decoder reads its skip tensor without a concatenated
// copy, so none of those allocates.
func TestWarmInferenceForwardAllocs(t *testing.T) {
	defer tensor.SetParallelism(tensor.SetParallelism(1))
	cfg := unet.DefaultConfig(2)
	cfg.BaseFilters = 4
	cfg.Depth = 2
	replica := unet.New(cfg)
	replica.SetBufferReuse(true)
	x := spatialTestInput(2, 48)
	replica.Forward(x, false)
	if got := testing.AllocsPerRun(5, func() { replica.Forward(x, false) }); got > 15 {
		t.Errorf("warm inference forward allocates %v objects, want at most 15", got)
	}
}
