package dist

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"mgdiffnet/internal/core"
	"mgdiffnet/internal/nn"
	"mgdiffnet/internal/tensor"
	"mgdiffnet/internal/unet"
)

// ParallelConfig drives a data-parallel training run (§3.2 of the paper).
type ParallelConfig struct {
	// Workers is the number of model replicas p (MPI ranks in the paper,
	// goroutines here).
	Workers int
	// Dim is the spatial dimensionality (2 or 3).
	Dim int
	// Res is the finest nodal training resolution, validated at
	// construction. TrainEpoch and EvalLoss take the per-epoch resolution
	// explicitly so multigrid schedules can move between levels.
	Res int
	// Samples is the number of Sobol-sampled diffusivity maps.
	Samples int
	// GlobalBatch is the global mini-batch size B, sharded across workers;
	// each replica sees a contiguous B/p-sized slice.
	GlobalBatch int
	// LR is the Adam learning rate (paper: 1e-4 for the scaling study).
	LR float64
	// Seed fixes weight initialization; every replica uses the same seed
	// so all start from identical parameters.
	Seed int64
	// BucketElems is the gradient-bucket granularity (in float64 elements)
	// of the communication/computation-overlapped allreduce; 0 selects the
	// 8192-element default. Bucket boundaries are fixed by this value and
	// the parameter layout alone, and the collective's summation order is
	// chunking-invariant (Communicator.AllReduceFrom), so the trained
	// weights are bit-identical for every bucket size.
	BucketElems int
	// Net overrides the default U-Net configuration when non-nil (Dim and
	// Seed are forced to match this config).
	Net *unet.Config
	// Data overrides the default Sobol dataset when non-nil; the replicas
	// share it and call Batch concurrently.
	Data core.DataSource
	// Transport, when non-nil, makes this trainer one rank of a
	// multi-process world: a single local replica is built over the given
	// endpoint (e.g. a *TCPTransport) instead of Workers in-process
	// replicas over a channel mesh. Workers must equal Transport.Peers()
	// (or be 0, which adopts it). Batches are sharded by Transport.Rank()
	// exactly as the in-process trainer shards by worker index and the
	// collectives are the same rank-order Communicator, so a p-rank
	// multi-process world trains bit-identically to Workers=p in-process.
	// The caller owns the endpoint: Close does not close it, so the
	// launcher can still send leave/abort frames after a failed epoch.
	Transport Transport
}

// lossBucket is the collective id of the 1-element loss allreduce that is
// enqueued ahead of every batch's gradient buckets.
const lossBucket = -1

// replica is one data-parallel worker: a core.Trainer — its own model,
// loss and optimizer, with all parameters and gradients arena-backed
// (nn.Arena) so the allreduce operates on the gradient slab in place, no
// per-batch gather/scatter — plus what is distributed about it: a
// persistent Communicator, the bucket plan, and a comm goroutine that
// overlaps each gradient bucket's reduction with the remainder of the
// backward pass.
type replica struct {
	*core.Trainer
	comm *Communicator
	plan *bucketPlan

	lossBuf []float64 // 1-element loss collective buffer

	// Per-batch overlap state. The compute goroutine writes weight and
	// contrib before enqueuing the batch's first collective and never
	// touches them again until the batch completes; the comm goroutine
	// reads them only after receiving an id, so the bucket channel's
	// send/receive pairs order every access.
	weight    float64
	contrib   []bool
	remaining []int // per-bucket countdown of outstanding backward groups
	cursor    int   // next position in plan.order to release
	hook      func(group int)

	buckets chan int   // collective ids in execution order; lossBucket first
	done    chan error // one result per completed batch
}

// startComm launches the communication goroutine over a fresh bucket
// channel. The channel buffers a whole batch's ids, so the backward hook
// never blocks on a slow collective. Single-worker trainers skip the
// goroutine entirely.
func (r *replica) startComm() {
	if r.comm.Peers() == 1 {
		return
	}
	r.buckets = make(chan int, r.plan.numBuckets()+1)
	go r.commLoop(r.plan, r.buckets)
}

// stopComm shuts the communication goroutine down; it must not be called
// while an epoch is in flight.
func (r *replica) stopComm() {
	if r.buckets != nil {
		close(r.buckets)
		r.buckets = nil
	}
}

// replan recomputes the bucket schedule after the parameter layout changed
// (architectural adaptation, checkpoint restore) and restarts the comm
// goroutine over it.
func (r *replica) replan(bucketElems int) error {
	plan, err := newBucketPlan(r.Net, r.Arena, bucketElems)
	if err != nil {
		return err
	}
	r.stopComm()
	r.plan = plan
	r.remaining = make([]int, plan.numBuckets())
	r.startComm()
	return nil
}

// commLoop executes the enqueued collectives in order. Every rank enqueues
// the identical id sequence for every batch (loss first, then buckets in
// plan-completion order), so the sequential per-rank processing matches up
// across ranks and the in-order channel transport keeps messages of
// consecutive collectives from mixing. Scaling a contributing rank's
// bucket by its shard weight happens here, just before the reduction —
// overlapped with the compute goroutine's ongoing backward like the
// reduction itself.
func (r *replica) commLoop(plan *bucketPlan, buckets chan int) {
	count := 0
	total := plan.numBuckets() + 1
	var firstErr error
	for id := range buckets {
		var err error
		if id == lossBucket {
			err = r.comm.AllReduceFrom(r.lossBuf, r.contrib)
		} else {
			lo, hi := plan.bounds[id], plan.bounds[id+1]
			span := r.Arena.Grad()[lo:hi]
			if r.contrib[r.comm.Rank()] && r.weight != 1 {
				for i := range span {
					span[i] *= r.weight
				}
			}
			err = r.comm.AllReduceFrom(span, r.contrib)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if count++; count == total {
			r.done <- firstErr
			count, firstErr = 0, nil
		}
	}
}

// beginBatch arms the per-batch countdown and enqueues the loss collective
// — known before backward even starts, so it overlaps the whole pass.
func (r *replica) beginBatch() {
	copy(r.remaining, r.plan.remainingInit)
	r.cursor = 0
	r.buckets <- lossBucket
}

// onGroup is the BackwardWithHook callback: group g's gradients are final,
// so its buckets' countdowns drop and every bucket whose countdown reached
// zero is released to the comm goroutine. plan.order is sorted by
// completion, so the ready buckets always form a prefix.
func (r *replica) onGroup(g int) {
	for _, b := range r.plan.groups[g] {
		r.remaining[b]--
	}
	for r.cursor < len(r.plan.order) && r.remaining[r.plan.order[r.cursor]] == 0 {
		r.buckets <- r.plan.order[r.cursor]
		r.cursor++
	}
}

// flushBuckets releases any bucket the hook sequence left behind. With a
// consistent plan this is dead code, but it keeps a planning bug from
// deadlocking the batch — every rank flushes identically, so the
// collective sequence stays aligned either way.
func (r *replica) flushBuckets() {
	for r.cursor < len(r.plan.order) {
		r.buckets <- r.plan.order[r.cursor]
		r.cursor++
	}
}

// enqueueAll releases every bucket in plan order; empty-shard ranks use it
// in place of running backward.
func (r *replica) enqueueAll() {
	r.cursor = 0
	r.flushBuckets()
}

type workerResult struct {
	rank int
	loss float64
	err  error
}

// workerCmd is one collective operation dispatched to every worker: an
// optimization epoch (train) or a forward-only dataset evaluation, at the
// given nodal resolution.
type workerCmd struct {
	res   int
	train bool
}

// newReplica wires one worker around its trainer: a persistent
// communicator, and the bucket plan plus comm goroutine of the overlapped
// allreduce.
func newReplica(t *core.Trainer, workers int, tr Transport, bucketElems int) (*replica, error) {
	r := &replica{
		Trainer: t,
		comm:    NewCommunicator(tr),
		lossBuf: make([]float64, 1),
		contrib: make([]bool, workers),
		done:    make(chan error, 1),
	}
	r.hook = r.onGroup
	if err := r.replan(bucketElems); err != nil {
		return nil, err
	}
	return r, nil
}

// ParallelTrainer trains identical U-Net replicas with synchronous
// data-parallel SGD: each global mini-batch is sharded across workers,
// local gradients of the variational loss are produced directly in a flat
// arena slab and averaged bucket-by-bucket through a persistent
// Communicator — each fixed-boundary bucket's reduction starts as soon as
// backward finalizes its layers and runs concurrently with the rest of
// the backward pass (the DDP overlap strategy) — and every replica
// applies the same fused Adam step to the reduced slab. Because gradient
// averaging is bit-deterministic (and, with the rank-order collective,
// independent of the bucket boundaries), the replica parameters stay
// exactly synchronized, checked by MaxReplicaDivergence.
//
// Worker-count independence (Eq. 15) — the same training trajectory for
// every p — additionally requires the local gradients to be independent of
// the sharding. That holds for every pure layer, but batch normalization
// computes statistics over the local B/p shard (as in standard
// data-parallel frameworks, which do not sync batch stats), so with
// BatchNorm enabled the trajectory and the replicas' running statistics
// depend on p even though the parameters still match bit-for-bit. The
// paper's scaling study — and every harness in this repository — runs the
// scaling nets with BatchNorm disabled. (A Dim-3 nn.Conv's automatic
// im2col+GEMM lowering keeps worker-count independence intact: its kernel
// selection depends only on the per-sample output volume, never on the
// local shard size.)
type ParallelTrainer struct {
	Cfg ParallelConfig

	world int   // communicator size p (ranks across all processes)
	ranks []int // global rank of each local replica

	reps []*replica
	cmds []chan workerCmd
	res  chan workerResult

	closeOnce sync.Once
}

// NewParallelTrainer validates cfg, builds one replica per worker, and
// starts the long-lived worker goroutines.
func NewParallelTrainer(cfg ParallelConfig) (*ParallelTrainer, error) {
	if cfg.Transport != nil {
		world := cfg.Transport.Peers()
		if cfg.Workers != 0 && cfg.Workers != world {
			return nil, fmt.Errorf("dist: Workers %d does not match Transport world size %d", cfg.Workers, world)
		}
		cfg.Workers = world
	} else if cfg.Workers < 1 {
		return nil, fmt.Errorf("dist: Workers must be >= 1, got %d", cfg.Workers)
	}
	if cfg.BucketElems < 0 {
		return nil, fmt.Errorf("dist: BucketElems must be >= 0, got %d", cfg.BucketElems)
	}

	// One local replica per transport endpoint: the whole world in-process
	// over a channel mesh, or a single rank of an external (TCP) world.
	var trs []Transport
	var ranks []int
	if cfg.Transport != nil {
		trs = []Transport{cfg.Transport}
		ranks = []int{cfg.Transport.Rank()}
	} else {
		trs = NewChannelRing(cfg.Workers)
		ranks = make([]int, cfg.Workers)
		for w := range ranks {
			ranks[w] = w
		}
	}
	pt := &ParallelTrainer{
		Cfg:   cfg,
		world: cfg.Workers,
		ranks: ranks,
		reps:  make([]*replica, len(trs)),
		cmds:  make([]chan workerCmd, len(trs)),
		res:   make(chan workerResult, len(trs)),
	}
	// Every replica is a one-level core.Trainer over the same config and
	// seed — identical initial weights on every rank — whose own epoch loop
	// (the whole global batch, local) is what a 1-rank world runs.
	rc := core.Config{
		Dim: cfg.Dim, Levels: 1, FinestRes: cfg.Res,
		Samples: cfg.Samples, BatchSize: cfg.GlobalBatch,
		LR: cfg.LR, Seed: cfg.Seed, Net: cfg.Net, Data: cfg.Data,
	}
	for w := range pt.reps {
		t, err := core.BuildTrainer(rc)
		if err != nil {
			return nil, fmt.Errorf("dist: %w", err)
		}
		rc.Data = t.Data // one dataset, shared by every replica
		r, err := newReplica(t, pt.world, trs[w], cfg.BucketElems)
		if err != nil {
			return nil, err
		}
		pt.reps[w] = r
		pt.cmds[w] = make(chan workerCmd, 1)
	}
	for w := range pt.reps {
		go pt.workerLoop(w)
	}
	return pt, nil
}

func (pt *ParallelTrainer) workerLoop(w int) {
	for c := range pt.cmds[w] {
		var loss float64
		var err error
		if c.train {
			loss, err = pt.runEpoch(w, c.res)
		} else {
			loss, err = pt.evalEpoch(w, c.res)
		}
		pt.res <- workerResult{rank: w, loss: loss, err: err}
	}
}

// shard returns global rank's contiguous [lo, hi) slice of an n-sample
// batch, balanced to within one sample. Ranks with an empty shard still
// join every allreduce.
func (pt *ParallelTrainer) shard(rank, n int) (int, int) {
	p := pt.world
	return rank * n / p, (rank + 1) * n / p
}

// runEpoch executes one epoch on worker w at the given resolution: for
// every global mini-batch it computes the local shard's gradient directly
// into the arena's gradient slab, scales and allreduces each fixed
// gradient bucket as soon as backward finalizes it (overlapping the
// reductions with the rest of the backward pass), and applies one fused
// Adam step to the reduced slab. The batch clamping and the per-sample
// loss weighting are the embedded trainer's (core.Trainer's epoch loop),
// with each batch's loss a separate 1-element collective.
//
// Empty shards (more workers than samples in a clamped batch) neither run
// backward nor zero-fill the slab: they replay the plan's bucket order
// verbatim and the collective skips non-contributors, overwriting their
// slab with the reduced result during the all-gather.
func (pt *ParallelTrainer) runEpoch(w, res int) (float64, error) {
	r := pt.reps[w]
	p := pt.world
	if p == 1 {
		// The whole batch is local: the trainer's own epoch, with no
		// collectives and no comm goroutine.
		return r.TrainEpoch(res)
	}
	rank := pt.ranks[w]
	B := pt.Cfg.GlobalBatch
	ns := r.Data.Len()

	total := 0.0
	for bStart := 0; bStart < ns; bStart += B {
		bn := min(B, ns-bStart)
		lo, hi := pt.shard(rank, bn)
		// Every rank derives every peer's shard occupancy from (bn, p), so
		// contrib is identical across ranks — the precondition of
		// AllReduceFrom.
		for q := 0; q < p; q++ {
			r.contrib[q] = (q+1)*bn/p > q*bn/p
		}
		r.weight = float64(hi-lo) / float64(bn)
		if hi > lo {
			lossVal, grad := r.ForwardLoss(bStart+lo, hi-lo, res, true)
			r.lossBuf[0] = lossVal * float64(hi-lo)
			r.beginBatch()
			r.Net.BackwardWithHook(grad, r.hook)
			r.flushBuckets()
		} else {
			r.lossBuf[0] = 0
			r.beginBatch()
			r.enqueueAll()
		}
		if err := <-r.done; err != nil {
			return 0, err
		}
		r.Opt.Step()
		total += r.lossBuf[0]
	}
	return total / float64(ns), nil
}

// evalEpoch is the forward-only counterpart of runEpoch: every worker
// evaluates its shard of each batch and a 1-element allreduce through the
// persistent communicator (and the replica's persistent loss buffer —
// nothing is allocated per batch) assembles the per-sample mean loss
// without touching gradients or weights.
func (pt *ParallelTrainer) evalEpoch(w, res int) (float64, error) {
	r := pt.reps[w]
	rank := pt.ranks[w]
	B := pt.Cfg.GlobalBatch
	ns := r.Data.Len()

	total := 0.0
	for bStart := 0; bStart < ns; bStart += B {
		bn := min(B, ns-bStart)
		lo, hi := pt.shard(rank, bn)
		r.lossBuf[0] = 0
		if hi > lo {
			lossVal, _ := r.ForwardLoss(bStart+lo, hi-lo, res, false)
			r.lossBuf[0] = lossVal * float64(hi-lo)
		}
		if err := r.comm.AllReduce(r.lossBuf); err != nil {
			return 0, err
		}
		total += r.lossBuf[0]
	}
	return total / float64(ns), nil
}

// runAll dispatches one collective command to every local worker and
// gathers the result (local replica 0's loss; every rank's loss is the
// identical allreduced value by construction, so in a multi-process world
// the single local replica already reports the global mean).
//
// For the duration of the epoch the tensor kernel parallelism is throttled
// to GOMAXPROCS over the local replica count so in-process replicas do not
// oversubscribe the CPU with their own parallel kernels — the analogue of
// pinning OpenMP threads per MPI rank. (A multi-process rank has one local
// replica and keeps the full budget; dividing cores between processes is
// the launcher's job.) The previous setting is restored before returning.
func (pt *ParallelTrainer) runAll(c workerCmd) (float64, error) {
	prev := tensor.SetParallelism(max(1, runtime.GOMAXPROCS(0)/len(pt.reps)))
	defer tensor.SetParallelism(prev)
	for _, ch := range pt.cmds {
		ch <- c
	}
	var loss float64
	var firstErr error
	for range pt.reps {
		r := <-pt.res
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		if r.rank == 0 {
			loss = r.loss
		}
	}
	return loss, firstErr
}

// TrainEpoch runs one synchronous data-parallel epoch at the given nodal
// resolution and returns the mean per-sample loss. Multigrid schedules
// call it with a different resolution per stage; the global batch is
// re-sharded identically at every level, so replicas stay bit-exact across
// level switches. It implements core.EpochBackend.
func (pt *ParallelTrainer) TrainEpoch(res int) (float64, error) {
	if err := pt.Net().ValidateRes(res); err != nil {
		return 0, err
	}
	return pt.runAll(workerCmd{res: res, train: true})
}

// EvalLoss computes the mean per-sample loss over the dataset at the given
// resolution without updating weights, sharding each batch across the
// workers. It implements core.EpochBackend.
func (pt *ParallelTrainer) EvalLoss(res int) (float64, error) {
	if err := pt.Net().ValidateRes(res); err != nil {
		return 0, err
	}
	return pt.runAll(workerCmd{res: res})
}

// TimeEpoch runs TrainEpoch at the given resolution under a wall-clock
// timer.
func (pt *ParallelTrainer) TimeEpoch(res int) (time.Duration, float64, error) {
	start := time.Now() //mglint:ignore detrand wall-clock telemetry for reported timings; never feeds the numeric path
	loss, err := pt.TrainEpoch(res)
	return time.Since(start), loss, err
}

// relayout applies an operation that changes the parameter layout to every
// replica's trainer and re-plans its gradient buckets over the new arena.
// It must not be called concurrently with an epoch.
func (pt *ParallelTrainer) relayout(change func(*core.Trainer) error) error {
	for _, r := range pt.reps {
		if err := change(r.Trainer); err != nil {
			return err
		}
		if err := r.replan(pt.Cfg.BucketElems); err != nil {
			return err
		}
	}
	return nil
}

// Adapt implements core.AdaptingBackend: every replica applies the same
// §4.1.2 adaptation step. The replica RNGs were seeded identically and have
// consumed identical draw sequences, so the fresh layers are born
// bit-identical on every rank and replica synchronization survives without
// a broadcast.
func (pt *ParallelTrainer) Adapt() error {
	return pt.relayout((*core.Trainer).Adapt)
}

// ExportState implements core.StatefulBackend with replica 0's state
// (replicas are bit-identical while training is synchronous).
func (pt *ParallelTrainer) ExportState() ([]byte, nn.AdamState, error) {
	return pt.reps[0].ExportState()
}

// ImportState restores every replica from the same snapshot. All replicas
// decode the same bytes, so they come back bit-identical.
func (pt *ParallelTrainer) ImportState(netBytes []byte, opt nn.AdamState) error {
	return pt.relayout(func(t *core.Trainer) error { return t.ImportState(netBytes, opt) })
}

// MaxReplicaDivergence returns the largest absolute parameter difference
// between replica 0 and any other replica. Synchronous gradient averaging
// with a deterministic allreduce keeps this exactly zero; a non-zero value
// means the implementation broke replica consistency. Only trainable
// parameters are compared — batch-norm running statistics are per-replica
// (see the type comment). It must not be called concurrently with
// TrainEpoch.
func (pt *ParallelTrainer) MaxReplicaDivergence() float64 {
	maxd := 0.0
	base := pt.Params()
	for _, r := range pt.reps[1:] {
		other := r.Params()
		for i, p0 := range base {
			d0, d1 := p0.Data.Data, other[i].Data.Data
			for j := range d0 {
				if d := math.Abs(d0[j] - d1[j]); d > maxd {
					maxd = d
				}
			}
		}
	}
	return maxd
}

// Params returns replica 0's parameters (the canonical model: all replicas
// are identical while training is synchronous).
func (pt *ParallelTrainer) Params() []*nn.Param { return pt.reps[0].Params() }

// Net returns replica 0's network.
func (pt *ParallelTrainer) Net() *unet.UNet { return pt.reps[0].Net }

// Close shuts down the worker and communication goroutines. The trainer
// must not be used after Close; Close is idempotent.
func (pt *ParallelTrainer) Close() {
	pt.closeOnce.Do(func() {
		for _, c := range pt.cmds {
			close(c)
		}
		for _, r := range pt.reps {
			r.stopComm()
		}
	})
}
