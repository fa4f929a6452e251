package serve

import (
	"runtime"
	"time"

	"mgdiffnet/internal/field"
	"mgdiffnet/internal/tensor"
)

// launchCause records why the dispatcher launched a batch, for the
// launched_at_once and launched_after_window counters.
type launchCause uint8

const (
	launchFull        launchCause = iota // the group reached MaxBatch
	launchAtOnce                         // demand could not fill a batch, or BatchWindow ≤ 0
	launchAfterWindow                    // the batch window elapsed first
)

// dispatch is the micro-batching loop: it accumulates queued flights into
// per-resolution groups and launches a group when it reaches MaxBatch.
// When the first flight of a group arrives and demand could not fill a
// batch (batchCanFill), it drains what is already queued and launches at
// once: a lone request waits for nothing. Otherwise it opens the batch
// window and launches whatever has gathered when it elapses. Launching
// blocks while every replica is busy — natural backpressure that lets the
// queue keep filling, so saturation produces full batches.
func (e *Engine) dispatch() {
	defer e.wg.Done()
	groups := map[int][]*flight{} // open groups, never empty
	var timer *time.Timer
	var window <-chan time.Time
	recent := arrivals{at: make([]time.Time, e.cfg.MaxBatch)}

	stopWindow := func() {
		if timer != nil {
			timer.Stop()
			timer = nil
		}
		window = nil
	}
	// add files f in its group and launches the group if that fills it.
	add := func(f *flight) {
		recent.note(f.admitted)
		g := append(groups[f.key.Res], f)
		if len(g) < e.cfg.MaxBatch {
			groups[f.key.Res] = g
			return
		}
		delete(groups, f.key.Res)
		e.launch(f.key.Res, g, launchFull)
	}
	flushAll := func(cause launchCause) {
		for res, fs := range groups {
			delete(groups, res)
			e.launch(res, fs, cause)
		}
		stopWindow()
	}

	for {
		select {
		case f := <-e.queue:
			add(f)
			if len(groups) == 0 {
				stopWindow() // f filled the last open group
				continue
			}
			if window != nil {
				continue
			}
			if !e.batchCanFill(&recent) {
				// Coalesce only what is already queued.
				for drained := false; !drained; {
					select {
					case f := <-e.queue:
						add(f)
					default:
						drained = true
					}
				}
				flushAll(launchAtOnce)
				continue
			}
			timer = time.NewTimer(e.cfg.BatchWindow)
			window = timer.C
		case <-window:
			flushAll(launchAfterWindow)
		case <-e.quit:
			// Close waited for every Solve to return before signalling
			// quit, so every queued or grouped flight is abandoned (its
			// waiters are gone); flush anyway — launch drops abandoned
			// flights without running a forward.
			flushAll(launchAtOnce)
			return
		}
	}
}

// arrivals rings the admission times of the last MaxBatch flights the
// dispatcher received. Only the dispatcher touches it.
type arrivals struct {
	at   []time.Time
	seen int
}

func (a *arrivals) note(t time.Time) {
	a.at[a.seen%len(a.at)] = t
	a.seen++
}

// within reports whether the last len(a.at) flights were all admitted
// within d of the latest.
func (a *arrivals) within(d time.Duration) bool {
	if a.seen < len(a.at) {
		return false
	}
	latest := a.at[(a.seen-1)%len(a.at)]
	return latest.Sub(a.at[a.seen%len(a.at)]) <= d
}

// batchCanFill reports whether demand could fill a batch within one
// window, the one case in which holding a partial batch open buys
// company. Either signal says so:
//   - the engine's admitted, unfinished flights number MaxBatch or more;
//   - the last MaxBatch flights were admitted within one window, so the
//     arrival rate alone fills a batch per window. Closed-loop clients need
//     it: once their batch is answered they are between requests and not
//     pending, and with forwards short next to a client's turnaround (or
//     one processor, where every flight is dispatched before the next
//     client runs) the pending count alone stays below MaxBatch and
//     batches shrink toward 1. It cannot tell one client sending back to
//     back from many: such a client, when MaxBatch requests take less than
//     a window, waits one window in every MaxBatch.
//
// It takes e.mu once per window the dispatcher would open, not once per
// queued flight. With BatchWindow ≤ 0 it is always false.
func (e *Engine) batchCanFill(recent *arrivals) bool {
	if e.cfg.BatchWindow <= 0 {
		return false
	}
	if recent.within(e.cfg.BatchWindow) {
		return true
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pending >= e.cfg.MaxBatch
}

// launch takes a replica from the pool (blocking until one frees up),
// then drops flights whose waiters have all detached, and runs the
// surviving batch on the replica asynchronously, so the dispatcher can
// keep accumulating the next batch meanwhile. A fully abandoned group
// hands the replica straight back — the promise behind waiter detachment:
// no forward pass runs for work nobody is waiting on, including work whose
// waiters left while it queued for a busy replica.
func (e *Engine) launch(res int, fs []*flight, cause launchCause) {
	rep := <-e.replicas
	fs = e.compactLive(fs)
	if len(fs) == 0 {
		e.replicas <- rep
		return
	}
	e.wg.Add(1)
	go e.runBatch(rep, res, fs, cause)
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
// Flights abandoned after launch took the replica still ride the batch — the
// forward is already paid for by the live sharers, and caching their
// result is sound (admission never changes values, only whether a forward
// runs).
//
//mglint:hotpath
func (e *Engine) runBatch(rep *replica, res int, fs []*flight, cause launchCause) {
	defer e.wg.Done()
	start := time.Now()
	n := len(fs)
	per := e.voxels(res)
	shape := e.inputShape(n, res)
	if rep.in == nil || !rep.in.ResizeBatch(shape...) {
		//mglint:ignore hotalloc the replica's batch tensor is allocated once per resolution and batch capacity; smaller batches reuse its storage
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
	switch cause {
	case launchAtOnce:
		e.stats.atOnce++
	case launchAfterWindow:
		e.stats.afterWindow++
	}
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
