package serve

import (
	"runtime"
	"time"

	"mgdiffnet/internal/field"
	"mgdiffnet/internal/tensor"
)

// dispatch is the micro-batching loop: it accumulates queued flights into
// per-resolution groups and launches a group when it reaches MaxBatch or
// when the batch window (opened by the first pending request) elapses.
// Launching blocks while every replica is busy — natural backpressure that
// lets the queue keep filling, so saturation produces full batches.
func (e *Engine) dispatch() {
	defer e.wg.Done()
	groups := map[int][]*flight{}
	var timer *time.Timer
	var window <-chan time.Time
	pending := 0

	flushAll := func() {
		for res, fs := range groups {
			delete(groups, res)
			e.launch(res, fs)
		}
		pending = 0
		if timer != nil {
			timer.Stop()
			timer = nil
		}
		window = nil
	}

	for {
		select {
		case f := <-e.queue:
			g := append(groups[f.key.Res], f)
			pending++
			if len(g) >= e.cfg.MaxBatch {
				delete(groups, f.key.Res)
				pending -= len(g)
				e.launch(f.key.Res, g)
				if pending == 0 && timer != nil {
					timer.Stop()
					timer = nil
					window = nil
				}
				continue
			}
			groups[f.key.Res] = g
			if e.cfg.BatchWindow <= 0 {
				// Greedy mode: coalesce only what is already queued.
				e.drainQueued(groups, &pending)
				flushAll()
				continue
			}
			if window == nil {
				timer = time.NewTimer(e.cfg.BatchWindow)
				window = timer.C
			}
		case <-window:
			timer = nil
			window = nil
			flushAll()
		case <-e.quit:
			// Close waited for every Solve to return before signalling
			// quit, so every queued or grouped flight is abandoned (its
			// waiters are gone); flush anyway — launch drops abandoned
			// flights without taking a replica.
			flushAll()
			return
		}
	}
}

// drainQueued moves every already-queued flight into groups without
// blocking, launching any group that fills to MaxBatch.
func (e *Engine) drainQueued(groups map[int][]*flight, pending *int) {
	for {
		select {
		case f := <-e.queue:
			g := append(groups[f.key.Res], f)
			*pending++
			if len(g) >= e.cfg.MaxBatch {
				delete(groups, f.key.Res)
				*pending -= len(g)
				e.launch(f.key.Res, g)
				continue
			}
			groups[f.key.Res] = g
		default:
			return
		}
	}
}

// launch drops flights whose waiters have all detached, then takes a
// replica from the pool (blocking until one frees up) and runs the
// surviving batch on it asynchronously, so the dispatcher can keep
// accumulating the next batch meanwhile. A fully abandoned group is
// dropped before it consumes a replica — the promise behind waiter
// detachment: no forward pass runs for work nobody is waiting on.
func (e *Engine) launch(res int, fs []*flight) {
	fs = e.compactLive(fs)
	if len(fs) == 0 {
		return
	}
	rep := <-e.replicas
	e.wg.Add(1)
	go e.runBatch(rep, res, fs)
}

// compactLive filters abandoned flights out of fs in place (no
// allocation) under e.mu. Abandoned flights were already settled and
// removed from the single-flight table by the last detaching waiter.
func (e *Engine) compactLive(fs []*flight) []*flight {
	e.mu.Lock()
	live := fs[:0]
	for _, f := range fs {
		if !f.abandoned {
			live = append(live, f)
		}
	}
	e.mu.Unlock()
	return live
}

// runBatch executes one coalesced forward pass: rasterize every ω into the
// replica's reused batch tensor, run the network, then copy each sample
// out, impose boundary conditions, publish to the cache and wake waiters.
// Flights abandoned between launch and here still ride the batch — the
// forward is already paid for by the live sharers, and caching their
// result is sound (admission never changes values, only whether a forward
// runs).
//
//mglint:hotpath
func (e *Engine) runBatch(rep *replica, res int, fs []*flight) {
	defer e.wg.Done()
	start := time.Now()
	n := len(fs)
	per := e.voxels(res)
	shape := e.inputShape(n, res)
	if rep.in == nil || !rep.in.ShapeIs(shape...) {
		//mglint:ignore hotalloc the replica's batch tensor is allocated once per (batch size, resolution) and reused across every later batch of that shape
		rep.in = tensor.New(shape...)
	}
	for i, f := range fs {
		field.RasterInto(rep.in.Data[i*per:(i+1)*per], f.key.Omega, e.dim, res)
	}
	e.faults.beforeBatch()
	y := rep.net.Forward(rep.in, false)
	for i, f := range fs {
		//mglint:ignore hotalloc the result buffer's ownership transfers to the flight and the LRU cache; pooling it would let cache entries alias live responses
		u := make([]float64, per)
		copy(u, y.Data[i*per:(i+1)*per])
		e.applyBC(u, res)
		f.u = u
		f.batch = n
	}
	// The forward output lives in the replica's reuse buffers; everything
	// needed has been copied out, so the replica can serve the next batch.
	e.replicas <- rep

	e.stats.Lock()
	e.stats.forwards++
	e.stats.batched += uint64(n)
	e.stats.Unlock()
	e.finish(fs, res, time.Since(start))
}

// runSlab answers one large request through the slab-parallel spatial
// inference path: the pass's output tensor becomes the flight's answer. A
// routed request fits the slab decomposition, so ForwardInto cannot fail;
// should it ever, the flight fails with its error.
func (e *Engine) runSlab(f *flight) {
	defer e.wg.Done()
	if e.abandonedBeforeForward(f) {
		return
	}
	res := f.key.Res
	start := time.Now()
	u, err := e.slabForward(f)
	if err != nil {
		f.err = err
		e.finish([]*flight{f}, res, 0)
		return
	}
	e.applyBC(u, res)
	f.u = u
	f.batch = 1
	f.slab = true

	e.stats.Lock()
	e.stats.forwards++
	e.stats.slabbed++
	e.stats.Unlock()
	e.finish([]*flight{f}, res, time.Since(start))
	// Every slab answer is a fresh volume-sized slice, and the slab
	// replicas hold dozens of volume-sized buffers, so under the default
	// GOGC the answers callers drop pile up to the size of that live set
	// before the collector runs: peak memory would grow with the request
	// rate. Collecting once the answer is out holds it
	// at the live set plus the answers still held, for under a
	// millisecond of marking at 128³ (the scratch is pointer-free).
	runtime.GC()
}

// slabForward rasterizes f's field into the engine's slab input and runs
// the spatial-inference pass into a fresh output, which it returns.
func (e *Engine) slabForward(f *flight) ([]float64, error) {
	e.slabMu.Lock()
	defer e.slabMu.Unlock()
	e.faults.beforeSlab()
	shape := e.inputShape(1, f.key.Res)
	if e.slabIn == nil || !e.slabIn.ShapeIs(shape...) {
		e.slabIn = tensor.New(shape...)
	}
	field.RasterInto(e.slabIn.Data, f.key.Omega, e.dim, f.key.Res)
	out, err := e.slab.ForwardInto(nil, e.slabIn)
	if err != nil {
		return nil, err
	}
	return out.Data[:e.voxels(f.key.Res)], nil
}

// abandonedBeforeForward reports (under e.mu) whether every waiter
// already detached, in which case the forward is skipped entirely.
func (e *Engine) abandonedBeforeForward(f *flight) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return f.abandoned
}

// finish publishes completed flights: insert into the cache, clear the
// in-flight table, release admission slots, feed the latency EWMA, and
// wake every waiter. Flights abandoned mid-forward still publish to the
// cache (their result is computed and bit-exact) but were already settled
// and removed from the single-flight table by their last waiter.
func (e *Engine) finish(fs []*flight, res int, elapsed time.Duration) {
	e.mu.Lock()
	for _, f := range fs {
		f.completed = true
		if f.err == nil && e.cache != nil {
			e.cache.put(f.key, f.u)
		}
		if e.inflight[f.key] == f {
			delete(e.inflight, f.key)
		}
		e.settleLocked(f)
	}
	if elapsed > 0 {
		e.observeLatencyLocked(res, elapsed)
	}
	e.observeLoadLocked()
	e.mu.Unlock()
	for _, f := range fs {
		close(f.done)
	}
}
