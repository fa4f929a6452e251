// Package serve is the throughput-oriented inference layer in front of a
// trained MGDiffNet generator: the paper's §5 payoff — one trained network
// replacing thousands of per-ω FEM solves — turned into a serving
// subsystem. An Engine owns a pool of network replicas and answers
// point queries ("the solution field for this ω at this resolution") with
// three mechanisms stacked in front of the forward pass:
//
//   - an ω+resolution-keyed LRU result cache with single-flight
//     deduplication, so identical queries — common when many users probe
//     the same design point — cost one forward pass total;
//   - a micro-batching dispatcher that coalesces single-ω requests
//     arriving within a latency window into one [N, 1, ...] forward pass,
//     amortizing per-pass overhead (buffer traffic, layer dispatch, GEMM
//     setup) across the batch;
//   - a routing rule that sends very large single requests to the
//     slab-parallel dist.SpatialInference path instead of the batcher, so
//     a megavoxel query neither stalls the batch pipeline nor pays for it.
//
// The engine is also overload-safe: every Solve carries a
// context.Context, so disconnected clients detach from their flight
// without poisoning single-flight sharers; an explicitly bounded
// admission queue sheds excess work with a typed ErrOverloaded (queue
// full, or EWMA-estimated wait past the request's deadline) instead of
// melting; and under sustained saturation the engine degrades gracefully
// — cache hits still answer, cold misses shed, and opt-in requests accept
// a coarser-resolution answer flagged Degraded. A failure-counting
// breaker reroutes the slab path onto the batched path instead of
// erroring.
//
// Every non-degraded response is bit-identical to a fresh monolithic
// net.Forward + boundary imposition on the same input: batching never
// changes per-sample values (convolutions, batch-norm inference statistics
// and pointwise activations are sample-independent, and the 3D GEMM
// lowering selects its kernel from per-sample volume), and the slab path
// reproduces the monolithic pass by receptive-field-covering halos.
// Admission control cannot change values either — it only decides whether
// a forward runs, never how.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mgdiffnet/internal/dist"
	"mgdiffnet/internal/fem"
	"mgdiffnet/internal/field"
	"mgdiffnet/internal/tensor"
	"mgdiffnet/internal/unet"
)

// Config parameterizes an Engine.
type Config struct {
	// Net is the trained network. The engine clones it per replica; the
	// original is never used for forward passes and stays caller-owned.
	Net *unet.UNet

	// Replicas is the number of network replicas answering batched
	// requests concurrently. Default: GOMAXPROCS, capped at 4.
	Replicas int

	// MaxBatch is the largest number of coalesced requests per forward
	// pass. Default 8.
	MaxBatch int

	// BatchWindow is how long the dispatcher holds the first request of a
	// batch open for co-arriving requests. Under saturation batches fill
	// to MaxBatch immediately and the window never elapses; it only costs
	// latency when traffic is sparse — exactly when latency is cheapest.
	// Zero or negative coalesces only requests already queued (greedy
	// drain, no added latency). Default 2ms.
	BatchWindow time.Duration

	// MaxQueue bounds the admission queue: the number of distinct
	// in-flight computations (queued, batching, or forwarding) the engine
	// accepts before shedding new work with ErrOverloaded. Cache hits and
	// single-flight joins are always admitted — they consume no forward.
	// Zero or negative means the default 8·MaxBatch·Replicas.
	MaxQueue int

	// CacheSize is the LRU result-cache capacity in entries. 0 means the
	// default (256); negative disables caching.
	CacheSize int

	// CacheMB bounds the cache payload in megabytes so megavoxel results
	// cannot pin gigabytes under a generous entry cap; an entry larger
	// than the whole budget is never cached. 0 means the default (256).
	CacheMB int

	// SlabVoxels routes a request whose field has at least this many
	// voxels to the slab-parallel path. 0 means the default (1<<21);
	// negative disables slab routing.
	SlabVoxels int

	// SlabWorkers is the slab count of the spatial-inference path.
	// Default 2.
	SlabWorkers int

	// WarmRes lists resolutions to warm on startup: each replica runs one
	// forward pass per listed resolution, so first requests do not pay
	// cold-allocation or lazy FEM-problem construction costs.
	WarmRes []int

	// Faults enables deterministic fault injection (slow replicas, stuck
	// slab workers, forced degraded mode) for chaos tests and overload
	// benchmarks. Nil in production.
	Faults *Faults
}

// Key identifies a query: the diffusivity parameter vector and the grid
// resolution. Two requests with equal keys have bit-identical answers,
// which is what makes caching and single-flight dedup sound.
type Key struct {
	Omega field.Omega
	Res   int
}

// Query is one request to SolveQuery: a Key plus per-request options.
type Query struct {
	Omega field.Omega
	Res   int
	// AllowDegraded opts in to a coarser-resolution answer (flagged
	// Result.Degraded) when the engine is in degraded mode, instead of
	// being shed with ErrOverloaded.
	AllowDegraded bool
}

// Result is one answered query.
type Result struct {
	// U is the BC-imposed solution field, res^dim values in row-major
	// order. It is a private copy; callers may mutate it freely.
	U []float64
	// Res and Dim describe the field layout. Res is the resolution the
	// answer was actually computed at — coarser than requested when
	// Degraded is set.
	Res, Dim int
	// Cached reports an LRU hit (no forward pass ran for this call).
	Cached bool
	// Shared reports single-flight coalescing with an identical in-flight
	// request (this call waited on another call's forward pass).
	Shared bool
	// Batch is the size of the forward batch that computed the value
	// (1 for the slab path, 0 for cache hits).
	Batch int
	// Slab reports that the slab-parallel spatial-inference path answered.
	Slab bool
	// Degraded reports a degraded-mode answer at a coarser resolution
	// than requested (only possible with Query.AllowDegraded).
	Degraded bool
}

// Stats is a snapshot of the engine's counters and gauges.
type Stats struct {
	Requests        uint64  `json:"requests"`
	CacheHits       uint64  `json:"cache_hits"`
	SharedInFlight  uint64  `json:"shared_in_flight"`
	Forwards        uint64  `json:"forwards"`
	BatchedRequests uint64  `json:"batched_requests"`
	SlabRequests    uint64  `json:"slab_requests"`
	CacheEntries    int     `json:"cache_entries"`
	Replicas        int     `json:"replicas"`
	MaxBatch        int     `json:"max_batch"`
	BatchWindowMS   float64 `json:"batch_window_ms"`

	// Overload and robustness counters.
	Shed             uint64 `json:"shed"`              // admissions refused (queue full, deadline, degraded)
	DeadlineSheds    uint64 `json:"deadline_sheds"`    // subset of Shed: estimated wait exceeded the deadline
	Canceled         uint64 `json:"canceled"`          // waiters that detached on context cancellation
	DeadlineExceeded uint64 `json:"deadline_exceeded"` // waiters that detached on context deadline
	DegradedServed   uint64 `json:"degraded_served"`   // coarse answers served in degraded mode
	DroppedFlights   uint64 `json:"dropped_flights"`   // all-waiters-gone flights dropped before their forward
	SlabFallbacks    uint64 `json:"slab_fallbacks"`    // slab failures rerouted to the batched path

	// Gauges.
	QueueDepth   int  `json:"queue_depth"`   // in-flight computations right now
	MaxQueue     int  `json:"max_queue"`     // admission bound
	DegradedMode bool `json:"degraded_mode"` // currently shedding cold misses
	BreakerOpen  bool `json:"breaker_open"`  // slab path currently rerouted
}

// replica is one pool slot: a privately owned network clone with recycled
// layer buffers plus a reusable batch-input tensor.
type replica struct {
	net *unet.UNet
	in  *tensor.Tensor
}

// Engine is a concurrent, batched inference server over a trained network.
// Methods are safe for concurrent use.
type Engine struct {
	cfg  Config
	dim  int
	meta *unet.UNet // architecture metadata only; never runs forwards

	loss     *fem.EnergyLoss // supplies the cached FEM problems for ApplyBC
	queue    chan *flight
	replicas chan *replica
	slab     *dist.SpatialInference
	slabMu   sync.Mutex // guards the slab path's input/output scratch
	slabIn   *tensor.Tensor
	slabOut  *tensor.Tensor
	faults   *faultState

	mu       sync.Mutex // guards cache, inflight, admission and degradation state
	cache    *lruCache
	inflight map[Key]*flight
	pending  int           // admitted, not yet finished or abandoned flights
	lat      map[int]*ewma // per-resolution batch-latency EWMA
	satScore float64       // EWMA of queue occupancy, drives degraded mode
	degraded bool
	slabBrk  breaker

	closeMu sync.RWMutex // held (read) for the duration of every Solve
	closed  bool
	quit    chan struct{}
	wg      sync.WaitGroup

	stats struct {
		sync.Mutex
		requests, cacheHits, shared, forwards, batched, slabbed uint64
		canceled, deadlineExceeded, degradedServed              uint64
		dropped, slabFallbacks                                  uint64
	}
	// shed counters live under e.mu (they are bumped inside the admission
	// decision, which already holds it).
	shedStats struct {
		shed, deadlineSheds uint64
	}
}

// NewEngine builds and starts an engine. The dispatcher goroutine runs
// until Close.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("serve: Config.Net is required")
	}
	if cfg.Net.Cfg.InChannels != 1 {
		return nil, fmt.Errorf("serve: engine serves ω-parameterized diffusivity queries and needs a 1-input-channel network, got %d", cfg.Net.Cfg.InChannels)
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = min(runtime.GOMAXPROCS(0), 4)
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 8
	}
	if cfg.BatchWindow == 0 {
		cfg.BatchWindow = 2 * time.Millisecond
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 8 * cfg.MaxBatch * cfg.Replicas
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 256
	}
	if cfg.CacheMB <= 0 {
		cfg.CacheMB = 256
	}
	if cfg.SlabVoxels == 0 {
		cfg.SlabVoxels = 1 << 21
	}
	if cfg.SlabWorkers <= 0 {
		cfg.SlabWorkers = 2
	}
	e := &Engine{
		cfg:  cfg,
		dim:  cfg.Net.Cfg.Dim,
		meta: cfg.Net,
		loss: fem.NewEnergyLoss(cfg.Net.Cfg.Dim),
		// The channel capacity matches the admission bound, so an
		// admitted flight's enqueue never blocks: pending <= MaxQueue and
		// every pending flight occupies at most one queue slot.
		queue:    make(chan *flight, cfg.MaxQueue),
		replicas: make(chan *replica, cfg.Replicas),
		inflight: map[Key]*flight{},
		lat:      map[int]*ewma{},
		quit:     make(chan struct{}),
	}
	e.slabBrk = breaker{threshold: breakerThreshold, cooldown: breakerCooldown}
	if cfg.Faults != nil {
		e.faults = newFaultState(*cfg.Faults)
	}
	if cfg.CacheSize > 0 {
		e.cache = newLRUCache(cfg.CacheSize, int64(cfg.CacheMB)<<20)
	}
	for i := 0; i < cfg.Replicas; i++ {
		c := cfg.Net.Clone()
		// Replicas are engine-owned and results are copied out before the
		// replica returns to the pool, so recycling layer buffers across
		// passes is sound and makes steady-state serving allocation-light.
		c.SetBufferReuse(true)
		r := &replica{net: c}
		e.warm(r)
		e.replicas <- r
	}
	if cfg.SlabVoxels > 0 {
		si, err := dist.NewSpatialInference(cfg.Net, cfg.SlabWorkers, dist.HaloFor(cfg.Net))
		if err != nil {
			return nil, fmt.Errorf("serve: slab path: %w", err)
		}
		e.slab = si
	}
	e.wg.Add(1)
	go e.dispatch()
	return e, nil
}

// warm runs one single-sample forward per configured warm resolution so
// the replica's reuse buffers, GEMM scratch and the shared FEM problems
// are built before traffic arrives.
func (e *Engine) warm(r *replica) {
	for _, res := range e.cfg.WarmRes {
		if e.meta.ValidateRes(res) != nil {
			continue
		}
		in := tensor.New(e.inputShape(1, res)...)
		field.RasterInto(in.Data, field.Omega{}, e.dim, res)
		r.net.Forward(in, false)
		e.problemFor(res) // build the BC problem cache entry
	}
}

func (e *Engine) inputShape(n, res int) []int {
	if e.dim == 2 {
		return []int{n, 1, res, res}
	}
	return []int{n, 1, res, res, res}
}

func (e *Engine) voxels(res int) int {
	if e.dim == 2 {
		return res * res
	}
	return res * res * res
}

// problemFor returns the cached FEM problem used for boundary imposition.
func (e *Engine) problemFor(res int) interface{ ApplyBC(*tensor.Tensor) } {
	if e.dim == 2 {
		return e.loss.Problem2DAt(res)
	}
	return e.loss.Problem3DAt(res)
}

// applyBC imposes the exact Dirichlet data on u (length res^dim) in place
// — Algorithm 1 step 8, the same imposition fem.EnergyLoss.WithBC performs.
func (e *Engine) applyBC(u []float64, res int) {
	var view *tensor.Tensor
	if e.dim == 2 {
		view = tensor.FromSlice(u, res, res)
	} else {
		view = tensor.FromSlice(u, res, res, res)
	}
	e.problemFor(res).ApplyBC(view)
}

// Dim returns the served field dimensionality (2 or 3).
func (e *Engine) Dim() int { return e.dim }

// ValidateRes reports whether res is a feasible query resolution.
func (e *Engine) ValidateRes(res int) error { return e.meta.ValidateRes(res) }

// Solve answers one query, blocking until the result is available or ctx
// is done. The call either hits the cache, joins an identical in-flight
// query, rides a coalesced batch through a pooled replica, or — for
// fields of at least SlabVoxels voxels — runs the slab-parallel
// spatial-inference path. A canceled ctx detaches this caller from its
// flight: single-flight sharers are unaffected, and a flight all of whose
// waiters have gone is dropped before its forward runs.
func (e *Engine) Solve(ctx context.Context, w field.Omega, res int) (Result, error) {
	return e.SolveQuery(ctx, Query{Omega: w, Res: res})
}

// SolveQuery is Solve with per-request options.
func (e *Engine) SolveQuery(ctx context.Context, q Query) (Result, error) {
	if err := e.meta.ValidateRes(q.Res); err != nil {
		return Result{}, err
	}
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed {
		return Result{}, fmt.Errorf("serve: engine is closed")
	}
	if err := ctx.Err(); err != nil {
		e.countCtxErr(err)
		return Result{}, fmt.Errorf("serve: %w", err)
	}
	e.stats.Lock()
	e.stats.requests++
	e.stats.Unlock()

	key := Key{Omega: q.Omega, Res: q.Res}
	degradedReq := false

	e.mu.Lock()
	if r, ok := e.lookupLocked(key); ok {
		e.mu.Unlock()
		return r, nil
	}
	if f, ok := e.inflight[key]; ok {
		f.waiters++
		e.mu.Unlock()
		return e.await(ctx, f, true, false)
	}

	// New work. Update the load signal, apply degraded-mode policy, then
	// the admission decision.
	now := time.Now()
	e.observeLoadLocked()
	if e.degradedLocked() {
		dres := 0
		if q.AllowDegraded {
			dres = e.coarserRes(q.Res)
		}
		if dres == 0 {
			e.shedStats.shed++
			est := e.estimatedWaitLocked(q.Res)
			e.mu.Unlock()
			return Result{}, &OverloadError{Reason: "degraded", RetryAfter: retryAfterHint(est)}
		}
		degradedReq = true
		key = Key{Omega: q.Omega, Res: dres}
		// The coarse key gets the same cache/single-flight treatment.
		if r, ok := e.lookupLocked(key); ok {
			e.mu.Unlock()
			r.Degraded = true
			e.stats.Lock()
			e.stats.degradedServed++
			e.stats.Unlock()
			return r, nil
		}
		if f, ok := e.inflight[key]; ok {
			f.waiters++
			e.mu.Unlock()
			return e.await(ctx, f, true, true)
		}
	}
	deadline, hasDeadline := ctx.Deadline()
	if err := e.admitLocked(deadline, hasDeadline, key.Res, now); err != nil {
		e.mu.Unlock()
		return Result{}, err
	}
	f := &flight{key: key, done: make(chan struct{}), waiters: 1}
	e.inflight[key] = f
	e.pending++
	useSlab := e.slab != nil && e.voxels(key.Res) >= e.cfg.SlabVoxels &&
		e.slabFits(key.Res) && e.slabBrk.allow(now)
	e.mu.Unlock()

	if useSlab {
		e.wg.Add(1)
		go e.runSlab(f)
	} else {
		select {
		case e.queue <- f:
		case <-ctx.Done():
			// cap(queue) == MaxQueue makes this branch unreachable in
			// practice (admission bounds pending), but a ctx-aware send
			// keeps the invariant local rather than global.
			e.detach(f)
			err := ctx.Err()
			e.countCtxErr(err)
			return Result{}, fmt.Errorf("serve: %w", err)
		}
	}
	return e.await(ctx, f, false, degradedReq)
}

// lookupLocked consults the result cache. Callers hold e.mu.
func (e *Engine) lookupLocked(key Key) (Result, bool) {
	if e.cache == nil {
		return Result{}, false
	}
	u, ok := e.cache.get(key)
	if !ok {
		return Result{}, false
	}
	r := Result{U: cloneField(u), Res: key.Res, Dim: e.dim, Cached: true}
	e.stats.Lock()
	e.stats.cacheHits++
	e.stats.Unlock()
	return r, true
}

// await blocks until f completes or ctx is done. Cancellation detaches
// this waiter only: the flight (and any sharers) proceed, and the batch
// still populates the cache. The last waiter to detach abandons the
// flight, which is then dropped before its forward runs.
func (e *Engine) await(ctx context.Context, f *flight, shared, degradedReq bool) (Result, error) {
	select {
	case <-f.done:
	case <-ctx.Done():
		// Prefer a result that raced in just as the context fired.
		select {
		case <-f.done:
		default:
			e.detach(f)
			err := ctx.Err()
			e.countCtxErr(err)
			return Result{}, fmt.Errorf("serve: %w", err)
		}
	}
	r, err := f.result(e.dim)
	if err != nil {
		return r, err
	}
	e.stats.Lock()
	if shared {
		e.stats.shared++
		r.Shared = true
	}
	if degradedReq {
		e.stats.degradedServed++
		r.Degraded = true
	}
	e.stats.Unlock()
	return r, nil
}

// detach removes one waiter from f. The last waiter abandons the flight:
// it leaves the single-flight table (so a later identical request
// recomputes) and the dispatcher drops it before its forward runs.
func (e *Engine) detach(f *flight) {
	e.mu.Lock()
	f.waiters--
	if f.waiters <= 0 && !f.completed {
		f.abandoned = true
		if e.inflight[f.key] == f {
			delete(e.inflight, f.key)
		}
		e.settleLocked(f)
		e.observeLoadLocked()
		e.stats.Lock()
		e.stats.dropped++
		e.stats.Unlock()
	}
	e.mu.Unlock()
}

// settleLocked releases f's admission-queue slot exactly once (both the
// finish path and the abandon path funnel through it). Callers hold e.mu.
func (e *Engine) settleLocked(f *flight) {
	if !f.settled {
		f.settled = true
		e.pending--
	}
}

// countCtxErr classifies a waiter's context error into the canceled vs
// deadline-exceeded counters.
func (e *Engine) countCtxErr(err error) {
	e.stats.Lock()
	if errors.Is(err, context.DeadlineExceeded) {
		e.stats.deadlineExceeded++
	} else {
		e.stats.canceled++
	}
	e.stats.Unlock()
}

// slabFits reports whether res satisfies the slab decomposition's
// divisibility constraints; requests that do not fit fall back to the
// batched path instead of erroring.
func (e *Engine) slabFits(res int) bool {
	w := e.slab.Workers()
	if w <= 1 {
		return true
	}
	if res%w != 0 {
		return false
	}
	slab := res / w
	return slab%e.meta.MinInputSize() == 0 && e.slab.Halo() <= slab
}

// SolveBatch answers a set of same-resolution queries concurrently and
// returns results in input order. The queries flow through the same cache,
// dedup, batching and admission machinery as individual Solve calls, so a
// batch with repeated ω values costs one forward per distinct ω at most.
func (e *Engine) SolveBatch(ctx context.Context, ws []field.Omega, res int) ([]Result, error) {
	qs := make([]Query, len(ws))
	for i, w := range ws {
		qs[i] = Query{Omega: w, Res: res}
	}
	return e.SolveQueries(ctx, qs)
}

// SolveQueries is SolveBatch with per-query options. On error it returns
// the partial results alongside the first error encountered.
func (e *Engine) SolveQueries(ctx context.Context, qs []Query) ([]Result, error) {
	out := make([]Result, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func(i int, q Query) {
			defer wg.Done()
			out[i], errs[i] = e.SolveQuery(ctx, q)
		}(i, q)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Stats returns a snapshot of the engine counters and gauges.
func (e *Engine) Stats() Stats {
	e.stats.Lock()
	s := Stats{
		Requests:         e.stats.requests,
		CacheHits:        e.stats.cacheHits,
		SharedInFlight:   e.stats.shared,
		Forwards:         e.stats.forwards,
		BatchedRequests:  e.stats.batched,
		SlabRequests:     e.stats.slabbed,
		Canceled:         e.stats.canceled,
		DeadlineExceeded: e.stats.deadlineExceeded,
		DegradedServed:   e.stats.degradedServed,
		DroppedFlights:   e.stats.dropped,
		SlabFallbacks:    e.stats.slabFallbacks,
		Replicas:         e.cfg.Replicas,
		MaxBatch:         e.cfg.MaxBatch,
		BatchWindowMS:    float64(e.cfg.BatchWindow) / float64(time.Millisecond),
	}
	e.stats.Unlock()
	e.mu.Lock()
	if e.cache != nil {
		s.CacheEntries = e.cache.len()
	}
	// Refresh the load signal so an idle engine recovers from degraded
	// mode even with no admissions driving observeLoadLocked.
	e.observeLoadLocked()
	s.Shed = e.shedStats.shed
	s.DeadlineSheds = e.shedStats.deadlineSheds
	s.QueueDepth = e.pending
	s.MaxQueue = e.cfg.MaxQueue
	s.DegradedMode = e.degradedLocked()
	s.BreakerOpen = e.slabBrk.tripped(time.Now())
	e.mu.Unlock()
	return s
}

// Close drains in-flight requests and stops the dispatcher. Solve calls
// made after Close return an error.
func (e *Engine) Close() {
	e.closeMu.Lock()
	if e.closed {
		e.closeMu.Unlock()
		return
	}
	e.closed = true
	e.closeMu.Unlock()
	// Acquiring the write lock above waited for every in-progress Solve
	// (each holds the read lock for its full duration), so every flight
	// is either finished or abandoned and no new flights can start; now
	// stop the dispatcher (which drops any abandoned stragglers).
	close(e.quit)
	e.wg.Wait()
}

func cloneField(u []float64) []float64 {
	c := make([]float64, len(u))
	copy(c, u)
	return c
}
