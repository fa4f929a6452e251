// The race detector allocates on goroutine start and synchronization, so
// allocation counts mean nothing under it.

//go:build !race

package unet

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"mgdiffnet/internal/tensor"
)

// batchInput is a deterministic [n, 1, res…] input whose samples differ.
func batchInput(dim, n, res int) *tensor.Tensor {
	x := tensor.New([]int{n, 1, res, res, res}[:2+dim]...)
	for i := range x.Data {
		x.Data[i] = math.Sin(float64(i)*0.13) + 0.5*math.Cos(float64(i)*0.029)
	}
	return x
}

// mallocs counts the heap objects one call of f allocates, on one
// processor as testing.AllocsPerRun counts them (the kernels then run on
// one worker).
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// A serving replica with buffer reuse on runs batches of 8, 1, 3 and 8 in
// turn. Every output equals a fresh net's forward of the same input bit
// for bit, at the worker count the test runs with. Once a replica has run
// a batch of 8, a change of batch size reshapes its held buffers instead
// of allocating new ones: no forward allocates more objects than a warm
// forward of its own shape (TestWarmInferenceForwardAllocs' bound for the
// 2D net). The counted replica replays the sequence three times and the
// least count of each step is kept, so a sync.Pool refilled after a
// collection does not read as a buffer allocation.
func TestReplicaBatchResizeBitExact(t *testing.T) {
	batches := []int{8, 1, 3, 8}
	for _, tc := range []struct{ dim, res int }{{2, 48}, {3, 16}} {
		t.Run(fmt.Sprintf("%dD", tc.dim), func(t *testing.T) {
			cfg := DefaultConfig(tc.dim)
			cfg.BaseFilters, cfg.Depth = 4, 2
			net := New(cfg)
			replica := net.Clone()
			replica.SetBufferReuse(true)
			for _, n := range batches {
				x := batchInput(tc.dim, n, tc.res)
				y := replica.Forward(x, false)
				want := net.Clone().Forward(x, false)
				if !y.SameShape(want) {
					t.Fatalf("batch %d: shape %v, want %v", n, y.Shape(), want.Shape())
				}
				for i, v := range want.Data {
					if math.Float64bits(y.Data[i]) != math.Float64bits(v) {
						t.Fatalf("batch %d: element %d is %v, fresh forward %v", n, i, y.Data[i], v)
					}
				}
			}

			counted := net.Clone()
			counted.SetBufferReuse(true)
			least := make([]uint64, len(batches))
			for round := 0; round < 3; round++ {
				for step, n := range batches {
					x := batchInput(tc.dim, n, tc.res)
					got := mallocs(func() { counted.Forward(x, false) })
					if round == 0 || got < least[step] {
						least[step] = got
					}
				}
			}
			for step, n := range batches[1:] {
				warm := net.Clone()
				warm.SetBufferReuse(true)
				x := batchInput(tc.dim, n, tc.res)
				warm.Forward(x, false)
				bound := testing.AllocsPerRun(5, func() { warm.Forward(x, false) })
				if got := least[step+1]; float64(got) > bound {
					t.Errorf("batch %d after batch %d: forward allocates %d objects, a warm forward of its shape %v",
						n, batches[step], got, bound)
				}
			}
		})
	}
}

// A warm inference clone writes no activation outside its arena: after a
// batch of 8, passes of 1, 3 and 8 samples, from the caller's tensor or
// through the input slot, allocate fewer bytes than one sample's input —
// only the kernels' closures — because every tensor a pass writes is a
// view into the arena, re-pointed in place.
func TestInferenceCloneAllocatesNoActivation(t *testing.T) {
	for _, tc := range []struct{ dim, res int }{{2, 48}, {3, 16}} {
		t.Run(fmt.Sprintf("%dD", tc.dim), func(t *testing.T) {
			cfg := DefaultConfig(tc.dim)
			cfg.BaseFilters, cfg.Depth = 4, 2
			ic := New(cfg).InferenceClone()
			ic.Forward(batchInput(tc.dim, 8, tc.res), false)
			sample := 8 * batchInput(tc.dim, 1, tc.res).Len()
			for _, n := range []int{1, 3, 8} {
				x := batchInput(tc.dim, n, tc.res)
				for _, slot := range []bool{false, true} {
					got := allocatedBytes(func() {
						in := x
						if slot {
							in = ic.Input(x.Shape()...)
						}
						ic.Forward(in, false)
					})
					if got >= uint64(sample) {
						t.Errorf("batch %d (input slot %v): a warm pass allocates %d bytes, one sample's input is %d", n, slot, got, sample)
					}
				}
			}
		})
	}
}

// allocatedBytes is mallocs counting bytes instead of objects.
func allocatedBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}
