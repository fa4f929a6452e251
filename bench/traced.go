package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mgdiffnet/internal/dist"
	"mgdiffnet/internal/fem"
	"mgdiffnet/internal/field"
	"mgdiffnet/internal/nn"
	"mgdiffnet/internal/serve"
	"mgdiffnet/internal/tensor"
	"mgdiffnet/internal/unet"
)

// The traced run of each workload: a shorter pass of the same workload with
// spans around every call this package makes into the layers, one untraced
// pass of the same length to measure what recording costs, and the probes.

func medianOf(st *spanStats) time.Duration {
	if st == nil {
		return 0
	}
	return medianDuration(st.durs)
}

func overheadFrac(plainRate, tracedRate float64) float64 {
	if plainRate == 0 {
		return 0
	}
	return 1 - tracedRate/plainRate
}

// ---- train_halfv3d ----

func (c trainConfig) runTraced(seed int64, out *outcome) *recorder {
	rec := newRecorder()
	// The single- and multi-worker epoch probes run first: they also grow the
	// heap to its working size, so neither unit below pays for a cold process.
	p1, err1 := c.epochTime(seed, 1)
	p2, err2 := c.epochTime(seed, trainWorkers)
	if err1 != nil || err2 != nil {
		out.fail("epoch probes: %v, %v", err1, err2)
		return rec
	}
	plain, err := c.runUnit(seed, nil, out)
	if err != nil {
		out.fail("untraced unit: %v", err)
		return rec
	}
	mem := startMemWindow()
	u, err := c.runUnit(seed, rec, out)
	if err != nil {
		out.fail("traced unit: %v", err)
		return rec
	}
	mem.finish(len(u.epochs), out)
	if u.finalLoss != plain.finalLoss {
		out.fail("traced unit's final loss %.17g differs from the untraced unit's %.17g", u.finalLoss, plain.finalLoss)
	}
	c.checkReference(seed, u.epochs[0].loss, out)
	out.set("trace.overhead_frac", overheadFrac(plain.samplesPerSec(c.Samples), u.samplesPerSec(c.Samples)))

	// The probe steps add their spans before the schedule's are aggregated.
	steps := map[int]stepTimes{}
	for _, res := range c.levelRes() {
		st, err := c.probeStep(seed, res, rec)
		if err != nil {
			out.fail("probe step at %d^3: %v", res, err)
			return rec
		}
		steps[res] = st
	}
	agg := rec.aggregate()
	out.set("core.schedule_self_ms", millis(agg["core.RunSchedule"].self))
	for _, res := range c.levelRes() {
		ep := agg[fmt.Sprintf("dist.TrainEpoch.res%d", res)]
		out.set(fmt.Sprintf("core.epochs.res%d", res), float64(ep.count))
		out.set(fmt.Sprintf("core.level_s.res%d", res), ep.total.Seconds())
		st := steps[res]
		out.set(fmt.Sprintf("unet.fwd_ms.res%d", res), millis(st.forward))
		out.set(fmt.Sprintf("unet.bwd_ms.res%d", res), millis(st.backward))
		out.set(fmt.Sprintf("fem.energy_eval_ms.res%d", res), millis(st.loss))
		if step := agg[fmt.Sprintf("probe.step.res%d", res)]; step.total > 0 {
			if covered := 1 - float64(step.self)/float64(step.total); covered < 0.95 {
				out.fail("probe step at %d^3: child spans cover only %.1f%% of it", res, 100*covered)
			}
		}
	}

	// Metric names carry the sizes of the configuration BENCHMARK.json
	// describes; a test's smaller configuration reports under the same names.
	fin := steps[c.FinestRes]
	out.set("field.batch_into_ms.res32", millis(fin.batch))
	out.set("nn.adam_ns_per_param", float64(fin.adam)/float64(fin.params))
	out.set("nn.arena_params", float64(fin.params))
	out.set("dist.allreduce_ms_per_step", millis(fin.allreduce))
	out.set("dist.allreduce_calls_per_step", float64(fin.calls))
	out.set("dist.allreduce_bytes_per_step", float64(8*fin.params)) // computed: the gradient slab each rank contributes

	stepsPerEpoch := (c.Samples + c.GlobalBatch - 1) / c.GlobalBatch
	compute := fin.batch + fin.forward + fin.loss + fin.backward + fin.adam
	out.set("dist.epoch_ms.p1.res32", millis(p1))
	out.set("dist.epoch_ms.p2.res32", millis(p2))
	out.set("dist.parallel_eff", p1.Seconds()/(trainWorkers*p2.Seconds()))
	out.set("dist.step_self_ms", millis(p2/time.Duration(stepsPerEpoch)-compute))

	shape := gemmTrain3D
	out.set("tensor.gemm_gflops.fwd", gemmGFLOPS("fwd", shape))
	out.set("tensor.gemm_gflops.transA", gemmGFLOPS("transA", gemmShape{m: shape.k, k: shape.m, n: shape.n}))
	out.set("tensor.gemm_gflops.transB", gemmGFLOPS("transB", gemmShape{m: shape.m, k: shape.n, n: shape.k}))
	out.set("tensor.parallel_speedup", parallelSpeedup(shape))
	conv3DProbe(c.Net.BaseFilters, c.FinestRes, out)
	return rec
}

// stepTimes are the median child-span durations of the probe step.
type stepTimes struct {
	batch, forward, loss, backward, allreduce, adam time.Duration
	calls                                           int // allreduce calls per step
	params                                          int // elements in the parameter arena
}

// probeStep rebuilds one optimization step of the data-parallel trainer
// from the layers' public calls, at one level's shapes, on trainWorkers ranks
// over a channel mesh; rank 0's calls are recorded. Unlike the trainer it
// reduces the buckets after backward, so the allreduce span is the cost the
// trainer's overlap has to hide.
func (c trainConfig) probeStep(seed int64, res int, rec *recorder) (stepTimes, error) {
	const reps = 3
	per := c.GlobalBatch / trainWorkers
	trs := dist.NewChannelRing(trainWorkers)
	data := c.dataset(seed)
	prev := tensor.SetParallelism(max(1, runtime.GOMAXPROCS(0)/trainWorkers))
	defer tensor.SetParallelism(prev)

	var st stepTimes
	errs := make([]error, trainWorkers)
	var wg sync.WaitGroup
	for rank := range trainWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ncfg := c.Net
			ncfg.Seed = seed
			net := unet.New(ncfg)
			net.SetBufferReuse(true)
			loss := fem.NewEnergyLoss(3)
			loss.SetScratchReuse(true)
			params := net.Params()
			opt := nn.NewAdam(params, trainLR)
			arena := nn.NewArena(params)
			comm := dist.NewCommunicator(trs[rank])
			var in *tensor.Tensor
			for it := range 1 + reps { // the first step warms buffers and is not recorded
				r := rec
				if rank != 0 || it == 0 {
					r = nil
				}
				name := func(call string) string { return fmt.Sprintf("%s.res%d", call, res) }
				step := r.begin(name("probe.step"), -1, int64(it))
				id := r.begin(name("field.BatchInto"), step, int64(it))
				in = data.BatchInto(in, rank*per, per, res)
				arena.ZeroGrad()
				r.end(id)
				id = r.begin(name("unet.Forward"), step, int64(it))
				pred := net.Forward(in, true)
				r.end(id)
				id = r.begin(name("fem.Eval"), step, int64(it))
				_, grad := loss.Eval(pred, in)
				r.end(id)
				id = r.begin(name("unet.Backward"), step, int64(it))
				net.BackwardWithHook(grad, nil)
				r.end(id)
				id = r.begin(name("dist.AllReduce"), step, int64(it))
				g := arena.Grad()
				calls := 0
				for lo := 0; lo < len(g); lo += trainBucket {
					if err := comm.AllReduce(g[lo:min(lo+trainBucket, len(g))]); err != nil {
						errs[rank] = err
						return
					}
					calls++
				}
				r.end(id)
				id = r.begin(name("nn.Adam.Step"), step, int64(it))
				opt.Step()
				r.end(id)
				r.end(step)
				if rank == 0 {
					st.calls, st.params = calls, arena.Len()
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return st, err
		}
	}
	agg := rec.aggregate()
	get := func(call string) time.Duration { return medianOf(agg[fmt.Sprintf("%s.res%d", call, res)]) }
	st.batch, st.forward, st.loss = get("field.BatchInto"), get("unet.Forward"), get("fem.Eval")
	st.backward, st.allreduce, st.adam = get("unet.Backward"), get("dist.AllReduce"), get("nn.Adam.Step")
	return st, nil
}

// epochTime times one warm finest-level epoch of the trainer on the given
// number of workers.
func (c trainConfig) epochTime(seed int64, workers int) (time.Duration, error) {
	pt, err := dist.NewParallelTrainer(c.parallel(seed, workers))
	if err != nil {
		return 0, err
	}
	defer pt.Close()
	if _, err := pt.TrainEpoch(c.FinestRes); err != nil {
		return 0, err
	}
	t := time.Now()
	_, err = pt.TrainEpoch(c.FinestRes)
	return time.Since(t), err
}

// ---- serve_unique2d, serve_zipf2d ----

// watchQueueDepth samples the engine's admission-queue depth every 50 ms
// until the returned function is called, which reports the largest seen.
func watchQueueDepth(eng *serve.Engine) (stop func() int) {
	done := make(chan struct{})
	result := make(chan int, 1)
	go func() {
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		deepest := 0
		for {
			select {
			case <-done:
				result <- deepest
				return
			case <-tick.C:
				deepest = max(deepest, eng.Stats().QueueDepth)
			}
		}
	}()
	return func() int {
		close(done)
		return <-result
	}
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func (c serveConfig) runTraced(ctx context.Context, seed int64, window time.Duration, stream *requestStream, out *outcome) *recorder {
	rec := newRecorder()
	net, eng, err := c.setUp(ctx, seed, stream)
	if err != nil {
		out.fail("set-up: %v", err)
		return rec
	}
	defer eng.Close()
	chk := newChecker(c, out)
	traced := &servePhase{cfg: c, eng: eng, stream: stream, chk: chk, rec: rec}
	plain := &servePhase{cfg: c, eng: eng, stream: stream, chk: chk}

	// Cruise traced for two fifths of the window, then saturation untraced
	// and traced for three twentieths each.
	cruiseDur, satDur := window*2/5, window*3/20
	sched := poissonSchedule(seed, c.CruiseRate, cruiseDur)
	mem := startMemWindow()
	stopWatch := watchQueueDepth(eng)
	s0 := eng.Stats()
	cruise := traced.openLoop(ctx, "serve.Solve.cruise", c.Warmup, sched)
	s1 := eng.Stats()
	next := c.Warmup + len(sched)
	satPlain, ratePlain := plain.closedLoop(ctx, "", next, satDur)
	next += len(satPlain)
	s2 := eng.Stats()
	sat, rate := traced.closedLoop(ctx, "serve.Solve.sat", next, satDur)
	next += len(sat)
	s3 := eng.Stats()
	depth := stopWatch()
	mem.finish(len(cruise)+len(satPlain)+len(sat), out)

	var hits, misses, late []float64
	for _, o := range cruise {
		late = append(late, millis(o.late))
		if !o.failed && !o.cached {
			misses = append(misses, millis(o.lat))
		}
	}
	for _, o := range sat {
		if !o.failed && o.cached {
			hits = append(hits, millis(o.lat)*1000)
		}
	}
	requests := s3.Requests - s0.Requests
	out.set("serve.mean_batch.cruise", ratio(s1.BatchedRequests-s0.BatchedRequests, s1.Forwards-s0.Forwards))
	out.set("serve.mean_batch.sat", ratio(s3.BatchedRequests-s2.BatchedRequests, s3.Forwards-s2.Forwards))
	out.set("serve.forwards", float64(s3.Forwards-s0.Forwards))
	out.set("serve.cache_hit_ratio", ratio(s3.CacheHits-s0.CacheHits, requests))
	out.set("serve.shared_ratio", ratio(s3.SharedInFlight-s0.SharedInFlight, requests))
	out.set("serve.hit_p50_us", median(hits))
	out.set("serve.miss_p50_ms", median(misses))
	out.set("serve.p95_ms", percentile(latencies(cruise), 95))
	out.set("serve.p99_ms", percentile(latencies(cruise), 99))
	out.set("serve.shed", float64(s3.Shed-s0.Shed))
	out.set("serve.queue_depth_max", float64(depth))
	out.set("serve.slab_requests", float64(s3.SlabRequests-s0.SlabRequests))
	out.set("gen.late_p99_ms", percentile(late, 99))
	out.set("trace.overhead_frac", overheadFrac(ratePlain, rate))
	if c.CacheSize < 0 && s3.CacheHits != 0 {
		out.fail("%d cache hits with the cache off", s3.CacheHits)
	}
	if s3.SlabRequests != 0 {
		out.fail("%d requests took the slab path", s3.SlabRequests)
	}

	// Idle latency: one request in flight at a time, each a miss (ω drawn
	// from a stream nothing else uses), for at most a tenth of the window.
	idle := &servePhase{cfg: c, eng: eng, stream: &requestStream{seed: seed, draws: streamIdle}, chk: newChecker(c, out), rec: rec}
	var idleLat []float64
	for i, t0 := 0, time.Now(); i < 64 && time.Since(t0) < window/10; i++ {
		t := time.Now()
		if _, failed := idle.solve(ctx, "serve.Solve.idle", i); !failed {
			idleLat = append(idleLat, millis(time.Since(t)))
		}
	}
	chk.verifyKept(net)

	// The same work called directly: rasterize, forward at batch 1, impose
	// the boundary values.
	direct := net.Clone()
	direct.SetBufferReuse(true)
	loss := fem.NewEnergyLoss(2)
	in := tensor.New(1, 1, c.Res, c.Res)
	for i := range 1 + 15 {
		r := rec
		if i == 0 {
			r = nil
		}
		root := r.begin("probe.direct", -1, int64(i))
		id := r.begin("field.RasterInto", root, int64(i))
		field.RasterInto(in.Data, omegaAt(seed, streamIdle, i), 2, c.Res)
		r.end(id)
		id = r.begin("unet.Forward.b1", root, int64(i))
		pred := direct.Forward(in, false)
		r.end(id)
		id = r.begin("fem.WithBC", root, int64(i))
		loss.WithBC(pred)
		r.end(id)
		r.end(root)
	}
	agg := rec.aggregate()
	b1 := medianOf(agg["unet.Forward.b1"])
	batch := tensor.New(serveMaxBatch, 1, c.Res, c.Res)
	for i := range serveMaxBatch {
		field.RasterInto(batch.Data[i*c.Res*c.Res:(i+1)*c.Res*c.Res], omegaAt(seed, streamIdle, i), 2, c.Res)
	}
	b8 := timeMedian(9, func() { direct.Forward(batch, false) })
	idleP50 := median(idleLat)
	out.set("field.raster2d_us", millis(medianOf(agg["field.RasterInto"]))*1000)
	out.set("fem.withbc_us", millis(medianOf(agg["fem.WithBC"]))*1000)
	out.set("unet.fwd_ms.b1", millis(b1))
	out.set("unet.fwd_ms.b8", millis(b8))
	out.set("unet.batch_gain", float64(serveMaxBatch)*b1.Seconds()/b8.Seconds())
	out.set("serve.idle_p50_ms", idleP50)
	out.set("serve.dispatch_self_ms", idleP50-millis(medianOf(agg["probe.direct"])))
	out.set("serve.queue_wait_ms", median(misses)-idleP50)
	conv2DProbe(c.Net.BaseFilters, c.Res, out)
	out.set("tensor.gemm_gflops.serve2d", gemmGFLOPS("fwd", gemmServe2D))
	return rec
}

// ---- infer_mega3d ----

func (c megaConfig) runTraced(ctx context.Context, net *unet.UNet, seed int64, window time.Duration, out *outcome) *recorder {
	rec := newRecorder()
	eng, err := c.setUp(ctx, net, seed)
	if err != nil {
		out.fail("set-up: %v", err)
		return rec
	}
	// Untraced then traced solves for a fifth of the window each.
	pass := func(r *recorder, base int) (n int, wall time.Duration) {
		t0 := time.Now()
		for ; n == 0 || time.Since(t0) < window/5; n++ {
			c.solve(ctx, eng, seed, base+n, r, out)
		}
		return n, time.Since(t0)
	}
	nPlain, wallPlain := pass(nil, 0)
	s0 := eng.Stats()
	mem := startMemWindow()
	n, wall := pass(rec, nPlain)
	mem.finish(n, out)
	s1 := eng.Stats()
	eng.Close()
	out.set("trace.overhead_frac", overheadFrac(float64(nPlain)/wallPlain.Seconds(), float64(n)/wall.Seconds()))
	out.set("serve.slab_requests", float64(s1.SlabRequests-s0.SlabRequests))
	out.set("serve.forwards", float64(s1.Forwards-s0.Forwards))
	out.set("serve.shed", float64(s1.Shed-s0.Shed))
	if got := s1.SlabRequests - s0.SlabRequests; got != uint64(n) {
		out.fail("%d of %d requests took the slab path", got, n)
	}
	release()

	// The pieces of one solve, called directly.
	voxels := c.Res * c.Res * c.Res
	in := tensor.New(1, 1, c.Res, c.Res, c.Res)
	raster := timeMedian(2, func() { field.RasterInto(in.Data, omegaAt(seed, streamIdle, 2), 3, c.Res) })
	si, err := dist.NewSpatialInference(net, megaSlabWorkers, dist.HaloFor(net))
	if err != nil {
		out.fail("slab probe: %v", err)
		return rec
	}
	var y *tensor.Tensor
	slab := timeMedian(1, func() {
		if y, err = si.ForwardInto(y, in); err != nil {
			out.fail("slab probe: %v", err)
		}
	})
	if err != nil {
		return rec
	}
	problem := fem.NewEnergyLoss(3).Problem3DAt(c.Res)
	view := tensor.FromSlice(y.Data[:voxels], c.Res, c.Res, c.Res)
	bc := timeMedian(2, func() { problem.ApplyBC(view) })
	out.set("dist.slab_fwd_s.res128", slab.Seconds())
	out.set("field.raster3d_ms.res128", millis(raster))
	out.set("serve.slab_self_ms", millis(medianOf(rec.aggregate()["serve.Solve.slab"])-slab-raster-bc))

	small := tensor.New(1, 1, c.CheckRes, c.CheckRes, c.CheckRes)
	field.RasterInto(small.Data, omegaAt(seed, streamIdle, 3), 3, c.CheckRes)
	mono := net.Clone()
	mono.SetBufferReuse(true)
	monoT := timeMedian(2, func() { mono.Forward(small, false) })
	var ys *tensor.Tensor
	slabT := timeMedian(2, func() {
		if ys, err = si.ForwardInto(ys, small); err != nil {
			out.fail("slab probe: %v", err)
		}
	})
	out.set("unet.fwd_s.mono64", monoT.Seconds())
	out.set("dist.slab_speedup.res64", monoT.Seconds()/slabT.Seconds())
	// Computed: rows every slab forwards beyond the ones it owns, over the
	// domain's rows.
	out.set("dist.halo_overhead_frac", float64(2*(megaSlabWorkers-1)*si.Halo())/float64(c.Res))
	out.set("tensor.gemm_gflops.mega3d", gemmGFLOPS("fwd", gemmMega3D))
	return rec
}
