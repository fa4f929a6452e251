package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"mgdiffnet/internal/fem"
	"mgdiffnet/internal/field"
	"mgdiffnet/internal/serve"
	"mgdiffnet/internal/tensor"
	"mgdiffnet/internal/unet"
)

// megaConfig is the infer_mega3d workload: one closed-loop client sending
// distinct ω at a resolution large enough that Engine.Solve routes every
// request to the slab-decomposed dist.SpatialInference path.
type megaConfig struct {
	Res int
	// CheckRes is the smaller resolution at which the slab path is compared
	// with a monolithic forward pass before timing (a monolithic pass at Res
	// would cost more time and memory than the whole window).
	CheckRes int
	Net      unet.Config
}

const megaSlabWorkers = 2

var inferMega3D = megaConfig{Res: 128, CheckRes: 64, Net: net3D()}

// engine builds an engine whose slab threshold is exactly res³ voxels; at
// Res 128 that is the engine's default of 1<<21.
func (c megaConfig) engine(net *unet.UNet, res int) (*serve.Engine, error) {
	return serve.NewEngine(serve.Config{
		Net: net, Replicas: 1, CacheSize: -1,
		SlabVoxels: res * res * res, SlabWorkers: megaSlabWorkers,
	})
}

// setUp builds the engine and sends one request, so the slab workers'
// scratch and the FEM problem exist before timing.
func (c megaConfig) setUp(ctx context.Context, net *unet.UNet, seed int64) (*serve.Engine, error) {
	eng, err := c.engine(net, c.Res)
	if err != nil {
		return nil, err
	}
	if _, err := eng.Solve(ctx, omegaAt(seed, streamIdle, 0), c.Res); err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

// checkSlab solves one ω at CheckRes through an engine that routes it to the
// slab path and compares with a monolithic forward pass on the same network.
func (c megaConfig) checkSlab(ctx context.Context, net *unet.UNet, seed int64, out *outcome) {
	eng, err := c.engine(net, c.CheckRes)
	if err != nil {
		out.fail("slab check: %v", err)
		return
	}
	defer eng.Close()
	w := omegaAt(seed, streamIdle, 1)
	r, err := eng.Solve(ctx, w, c.CheckRes)
	if err != nil || !r.Slab {
		out.fail("slab check: slab %v, err %v", r.Slab, err)
		return
	}
	in := tensor.New(1, 1, c.CheckRes, c.CheckRes, c.CheckRes)
	field.RasterInto(in.Data, w, 3, c.CheckRes)
	want := fem.NewEnergyLoss(3).WithBC(net.Clone().Forward(in, false))
	worst := 0.0
	for i, v := range want.Data {
		worst = max(worst, math.Abs(v-r.U[i]))
	}
	if !(worst <= 1e-12) {
		out.fail("slab path differs from the monolithic forward by %g at %d^3", worst, c.CheckRes)
	}
}

// solve sends request i and checks the answer's shape and routing.
func (c megaConfig) solve(ctx context.Context, eng *serve.Engine, seed int64, i int, rec *recorder, out *outcome) (time.Duration, bool) {
	id := rec.begin("serve.Solve.slab", -1, int64(i))
	t := time.Now()
	r, err := eng.Solve(ctx, omegaAt(seed, streamOmega, i), c.Res)
	d := time.Since(t)
	rec.end(id)
	out.attempted++
	switch {
	case err != nil:
		out.fail("solve %d: %v", i, err)
	case !r.Slab || r.Res != c.Res || len(r.U) != c.Res*c.Res*c.Res:
		out.fail("solve %d: slab %v, res %d, %d values", i, r.Slab, r.Res, len(r.U))
	case math.IsNaN(r.U[len(r.U)/2]):
		out.fail("solve %d: NaN in the field", i)
	default:
		return d, true
	}
	return d, false
}

// megaSetups is how many times a megavoxel run sets up (each costs a 128³
// solve); setup_s is the median.
const megaSetups = 3

// release returns what the last set-up or unit left behind to the OS before
// the next one starts, so peak_rss_mb is one engine's or trainer's footprint
// and not an accident of GC timing.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

// repeatSetUp sets up n times, closing every engine but the last and
// releasing its memory, and returns the last engine with each set-up's time
// in seconds; setup_s is their median.
func repeatSetUp(n int, setUp func() (*serve.Engine, error)) (*serve.Engine, []float64, error) {
	var secs []float64
	for i := 1; ; i++ {
		t := time.Now()
		eng, err := setUp()
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(t).Seconds())
		if i == n {
			return eng, secs, nil
		}
		eng.Close()
		release()
	}
}

func (c megaConfig) run(seed int64, window time.Duration, traced bool) (*outcome, *recorder) {
	out := newOutcome()
	ctx := context.Background()
	ncfg := c.Net
	ncfg.Seed = seed
	net := unet.New(ncfg)
	c.checkSlab(ctx, net, seed, out)
	release()
	if traced {
		return out, c.runTraced(ctx, net, seed, window, out)
	}
	eng, setups, err := repeatSetUp(megaSetups, func() (*serve.Engine, error) { return c.setUp(ctx, net, seed) })
	if err != nil {
		out.fail("set-up: %v", err)
		return out, nil
	}
	defer eng.Close()

	var lat []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < window; i++ {
		if d, ok := c.solve(ctx, eng, seed, i, nil, out); ok {
			lat = append(lat, millis(d))
		}
	}
	wall := time.Since(start)
	out.set("setup_s", median(setups))
	out.set("ops_per_s", float64(len(lat))/wall.Seconds())
	out.set("p50_ms", median(lat))
	out.set("p90_ms", percentile(lat, 90))
	out.set("peak_rss_mb", peakRSSMB())
	voxels := float64(c.Res*c.Res*c.Res) / 1e6
	fmt.Fprintf(logw, "mega: %d solves at %d^3 in %.2fs, %.3f Mvoxel/s, slab requests %d\n",
		len(lat), c.Res, wall.Seconds(), voxels*float64(len(lat))/wall.Seconds(), eng.Stats().SlabRequests)
	return out, nil
}
