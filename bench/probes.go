package main

import (
	"runtime"
	"time"

	"mgdiffnet/internal/nn"
	"mgdiffnet/internal/tensor"
)

// Probes time single calls into one layer at the shapes a workload gives it.
// They run only in the traced run, after the workload, and feed the
// per-layer metrics that spans around whole requests cannot separate.

// timeMedian runs f once to warm it and returns the median of reps timings.
func timeMedian(reps int, f func()) time.Duration {
	f()
	ds := make([]float64, reps)
	for i := range ds {
		t := time.Now()
		f()
		ds[i] = float64(time.Since(t))
	}
	return time.Duration(median(ds))
}

// gemmShape is a product with m output rows, n output columns and a
// contraction of length k; its operation count is 2mnk.
type gemmShape struct{ m, k, n int }

// The products the widest convolution of each workload's U-Net (the
// full-resolution decoder block, 2·base → base channels, 3^dim taps) lowered
// to when the benchmark was defined: m = base, k = 2·base·taps, n = the
// output positions of one lowering. The 3D convolution lowers a few depth
// planes at a time: four of a 32³ per-replica batch of two, one of a 128³
// volume.
var (
	gemmTrain3D = gemmShape{m: 4, k: 216, n: 2 * 4 * 32 * 32}
	gemmMega3D  = gemmShape{m: 4, k: 216, n: 128 * 128}
	gemmServe2D = gemmShape{m: 8, k: 144, n: 32 * 32}
)

func ones(shape ...int) *tensor.Tensor { return tensor.Full(1, shape...) }

// gemmTime times one of the three products the convolution lowering uses:
// "fwd" W·cols, "transA" Wᵀ·grad (input gradient), "transB" grad·colsᵀ
// (weight gradient).
func gemmTime(kind string, s gemmShape) time.Duration {
	var f func()
	switch kind {
	case "fwd":
		a, b, c := ones(s.m, s.k), ones(s.k, s.n), tensor.New(s.m, s.n)
		f = func() { tensor.MatMulInto(a, b, c) }
	case "transA":
		a, b, c := ones(s.k, s.m), ones(s.k, s.n), tensor.New(s.m, s.n)
		f = func() { tensor.MatMulTransAInto(a, b, c) }
	case "transB":
		a, b, c := ones(s.m, s.k), ones(s.n, s.k), tensor.New(s.m, s.n)
		f = func() { tensor.MatMulTransBInto(a, b, c) }
	default:
		panic("bench: unknown gemm kind " + kind)
	}
	return timeMedian(5, f)
}

// gemmGFLOPS is the computed operation count 2mnk over the measured time.
func gemmGFLOPS(kind string, s gemmShape) float64 {
	return 2 * float64(s.m) * float64(s.n) * float64(s.k) / gemmTime(kind, s).Seconds() / 1e9
}

// parallelSpeedup is the forward product's time on one worker over its time
// on all of them.
func parallelSpeedup(s gemmShape) float64 {
	prev := tensor.SetParallelism(1)
	one := gemmTime("fwd", s)
	tensor.SetParallelism(runtime.GOMAXPROCS(0))
	all := gemmTime("fwd", s)
	tensor.SetParallelism(prev)
	return one.Seconds() / all.Seconds()
}

// conv3DProbe times the dominant training convolution on one sample:
// forward, backward, and the column-matrix build the lowering pays for.
func conv3DProbe(base, res int, out *outcome) {
	rng := nn.NewRNG(1)
	conv := nn.NewConv3D(rng, "probe", 2*base, base, 3, 1, 1)
	conv.Algo = nn.ConvGEMM
	x := ones(1, 2*base, res, res, res)
	var y *tensor.Tensor
	fwd := timeMedian(3, func() { y = conv.Forward(x, true) })
	g := ones(y.Shape()...)
	bwd := timeMedian(3, func() { conv.Backward(g) })
	lower := timeMedian(3, func() { nn.Im2Col3D(x, 3, 1, 1) })
	out.set("nn.conv3d_fwd_ms", millis(fwd))
	out.set("nn.conv3d_bwd_ms", millis(bwd))
	out.set("nn.im2col3d_ms", millis(lower))
	out.set("nn.lowering_frac", lower.Seconds()/fwd.Seconds())
}

// conv2DProbe times the dominant serving convolution at batch 1 and at the
// engine's largest batch.
func conv2DProbe(base, res int, out *outcome) {
	rng := nn.NewRNG(1)
	conv := nn.NewConv2D(rng, "probe", 2*base, base, 3, 1, 1)
	for _, b := range []struct {
		name string
		n    int
	}{{"nn.conv2d_fwd_ms.b1", 1}, {"nn.conv2d_fwd_ms.b8", serveMaxBatch}} {
		x := ones(b.n, 2*base, res, res)
		out.set(b.name, millis(timeMedian(9, func() { conv.Forward(x, false) })))
	}
}

// memWindow measures allocation and GC pause over an interval.
type memWindow struct{ before runtime.MemStats }

func startMemWindow() *memWindow {
	w := &memWindow{}
	runtime.ReadMemStats(&w.before)
	return w
}

// finish reports bytes and allocations per operation and the total GC pause.
func (w *memWindow) finish(ops int, out *outcome) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := float64(max(ops, 1))
	out.set("mem.bytes_per_op", float64(after.TotalAlloc-w.before.TotalAlloc)/n)
	out.set("mem.allocs_per_op", float64(after.Mallocs-w.before.Mallocs)/n)
	out.set("gc.pause_ms", float64(after.PauseTotalNs-w.before.PauseTotalNs)/1e6)
	out.set("gen.sent", float64(ops))
}
