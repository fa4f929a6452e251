package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"mgdiffnet/internal/core"
	"mgdiffnet/internal/dist"
	"mgdiffnet/internal/field"
	"mgdiffnet/internal/unet"
)

// trainConfig is the train_halfv3d workload: one unit of work is a complete
// Half-V schedule from fresh weights over the data-parallel trainer. The
// epoch budget per stage is a fixed count (early stopping is disabled), so
// every unit of a seed does identical arithmetic and a run repeats units
// until its window is spent.
type trainConfig struct {
	Levels         int
	FinestRes      int
	Samples        int
	GlobalBatch    int
	EpochsPerStage int
	Net            unet.Config
	// TargetFrac sets the time-to-loss target of the pinned problem, as a
	// fraction of the loss its fresh network has at the finest level.
	TargetFrac float64
}

const (
	trainWorkers = 2
	trainLR      = 1e-3
	// trainBucket is the gradient-bucket size, in elements, of the trainer's
	// allreduce and of the probe step's.
	trainBucket = 8192
)

// net3D is the 3D U-Net train_halfv3d trains and infer_mega3d serves.
func net3D() unet.Config {
	c := unet.DefaultConfig(3)
	c.Depth = 2
	c.BaseFilters = 4
	c.BatchNorm = false // per-shard batch statistics would make the trajectory depend on the worker count
	return c
}

// trainHalfV3D's target sits between the losses of the pinned problem's
// first and second finest-level epochs (0.707 and 0.631 of the fresh
// network's), so the second of three reaches it: a schedule that converges
// later or sooner moves the time to loss by a whole epoch.
var trainHalfV3D = trainConfig{
	Levels:         3,
	FinestRes:      32,
	Samples:        8,
	GlobalBatch:    4,
	EpochsPerStage: 3,
	Net:            net3D(),
	TargetFrac:     0.65,
}

// goldenSeed is the pinned problem: every second unit of a run trains this
// seed's data from this seed's weights whatever --seed says. Trajectories
// differ so much between seeds (the same budget lowers the loss by 2% on one
// and 45% on another) that no target is reached at the same epoch on all of
// them, while on one problem the arithmetic is bit-deterministic: the epoch
// that reaches the target is fixed until the schedule or the arithmetic
// changes. goldenFinalLoss is that problem's final loss under trainHalfV3D,
// per GOARCH (fused multiply-add differs between architectures).
// bench/README.md says how to refresh it.
const goldenSeed = 1

var goldenFinalLoss = map[string]float64{"amd64": 2728122.0028228504}

func (c trainConfig) resAt(level int) int { return c.FinestRes >> (level - 1) }

func (c trainConfig) levelRes() []int {
	out := make([]int, 0, c.Levels)
	for l := c.Levels; l >= 1; l-- {
		out = append(out, c.resAt(l))
	}
	return out
}

func (c trainConfig) dataset(seed int64) *field.Dataset {
	return &field.Dataset{Omegas: omegas(seed, streamOmega, c.Samples), Dim: 3}
}

func (c trainConfig) parallel(seed int64, workers int) dist.ParallelConfig {
	net := c.Net
	return dist.ParallelConfig{
		Workers:     workers,
		Dim:         3,
		Res:         c.FinestRes,
		Samples:     c.Samples,
		GlobalBatch: c.GlobalBatch,
		LR:          trainLR,
		BucketElems: trainBucket,
		Seed:        seed,
		Net:         &net,
		Data:        c.dataset(seed),
	}
}

func (c trainConfig) schedule(seed int64) core.Config {
	return core.Config{
		Dim:               3,
		Strategy:          core.HalfV,
		Levels:            c.Levels,
		FinestRes:         c.FinestRes,
		Samples:           c.Samples,
		BatchSize:         c.GlobalBatch,
		LR:                trainLR,
		MaxEpochsPerStage: c.EpochsPerStage,
		Patience:          1 << 30, // never fires within the budget: the work is a fixed count
		Seed:              seed,
	}
}

// epochObs is one TrainEpoch call seen by the decorator.
type epochObs struct {
	res  int
	dur  time.Duration
	at   time.Duration // return time, from the start of RunSchedule
	loss float64
}

// observedBackend decorates an EpochBackend with timing and spans; it is how
// the benchmark sees inside RunSchedule without touching it.
type observedBackend struct {
	core.EpochBackend
	rec    *recorder
	parent int
	start  time.Time
	epochs []epochObs
}

func (o *observedBackend) TrainEpoch(res int) (float64, error) {
	id := o.rec.begin(fmt.Sprintf("dist.TrainEpoch.res%d", res), o.parent, 0)
	t := time.Now()
	loss, err := o.EpochBackend.TrainEpoch(res)
	d := time.Since(t)
	o.rec.end(id)
	o.epochs = append(o.epochs, epochObs{res: res, dur: d, at: time.Since(o.start), loss: loss})
	return loss, err
}

func (o *observedBackend) EvalLoss(res int) (float64, error) {
	id := o.rec.begin(fmt.Sprintf("dist.EvalLoss.res%d", res), o.parent, 0)
	defer o.rec.end(id)
	return o.EpochBackend.EvalLoss(res)
}

// trainUnit is the outcome of one schedule.
type trainUnit struct {
	setup       time.Duration
	wall        time.Duration // RunSchedule
	epochs      []epochObs
	initialLoss float64 // of the fresh network at the finest level
	finalLoss   float64
	// timeToLoss is the return, from the start of RunSchedule, of the first
	// finest-level epoch at or below the target, and epochsToLoss the epochs
	// run by then; both 0 when none reached it.
	timeToLoss   time.Duration
	epochsToLoss int
}

func (u trainUnit) samplesPerSec(samples int) float64 {
	return float64(samples*len(u.epochs)) / u.wall.Seconds()
}

// runUnit builds a fresh trainer (timed as set-up, including one forward
// evaluation per level so lazy FEM problems and layer buffers exist before
// the schedule starts), runs the schedule, and checks the result.
func (c trainConfig) runUnit(seed int64, rec *recorder, out *outcome) (trainUnit, error) {
	var u trainUnit
	t0 := time.Now()
	pt, err := dist.NewParallelTrainer(c.parallel(seed, trainWorkers))
	if err != nil {
		return u, err
	}
	defer pt.Close()
	for _, res := range c.levelRes() {
		if u.initialLoss, err = pt.EvalLoss(res); err != nil {
			return u, err
		}
	}
	u.setup = time.Since(t0)

	root := rec.begin("core.RunSchedule", -1, 0)
	obs := &observedBackend{EpochBackend: pt, rec: rec, parent: root, start: time.Now()}
	rep, err := core.RunSchedule(c.schedule(seed), obs, core.RunOptions{})
	u.wall = time.Since(obs.start)
	rec.end(root)
	out.attempted += len(obs.epochs)
	if err != nil {
		out.fail("RunSchedule: %v", err)
		return u, err
	}
	u.epochs = obs.epochs
	u.finalLoss = rep.FinalLoss

	for i, e := range obs.epochs {
		if e.res == c.FinestRes && e.loss <= c.TargetFrac*u.initialLoss {
			u.timeToLoss, u.epochsToLoss = e.at, i+1
			break
		}
	}
	if want := c.Levels * c.EpochsPerStage; len(obs.epochs) != want {
		out.fail("schedule ran %d epochs, want %d", len(obs.epochs), want)
	}
	if d := pt.MaxReplicaDivergence(); d != 0 {
		out.fail("replicas diverged by %g", d)
	}
	if math.IsNaN(u.finalLoss) || math.IsInf(u.finalLoss, 0) {
		out.fail("final loss is %g", u.finalLoss)
	}
	return u, nil
}

// checkReference is the training output check that holds for every seed:
// the first epoch of the data-parallel schedule must reach the loss the
// single-process core.Trainer reaches from the same weights on the same
// data, to rounding (the two sum the batch's gradients in different orders).
// Whether nine epochs lower the loss is a property of the seed's data, not
// of the program, so that is checked on the pinned problem only.
func (c trainConfig) checkReference(seed int64, firstEpochLoss float64, out *outcome) {
	cfg := c.schedule(seed)
	net := c.Net
	cfg.Net = &net
	cfg.Data = c.dataset(seed)
	want, err := core.NewTrainer(cfg).TrainEpoch(c.resAt(c.Levels))
	if err != nil {
		out.fail("reference trainer: %v", err)
		return
	}
	if math.Abs(firstEpochLoss-want) > 1e-9*math.Abs(want) {
		out.fail("first epoch loss %.17g differs from the single-process trainer's %.17g", firstEpochLoss, want)
	}
}

// checkPinned is the output check on a unit of the pinned problem: it
// lowered the loss, reached the target, and, under the configuration
// BENCHMARK.json describes, ended at the golden final loss.
func (c trainConfig) checkPinned(u trainUnit, out *outcome) {
	if !(u.finalLoss < u.initialLoss) {
		out.fail("pinned problem: final loss %.17g is not below the fresh network's %.17g", u.finalLoss, u.initialLoss)
	}
	if u.timeToLoss == 0 {
		out.fail("pinned problem: no finest-level epoch reached %.3g of the fresh network's loss %.17g", c.TargetFrac, u.initialLoss)
	}
	if c != trainHalfV3D {
		return
	}
	want, ok := goldenFinalLoss[runtime.GOARCH]
	if !ok {
		fmt.Fprintf(logw, "warning: no golden final loss for GOARCH %s; got %.17g\n", runtime.GOARCH, u.finalLoss)
		return
	}
	if math.Abs(u.finalLoss-want) > 1e-9*math.Abs(want) {
		out.fail("pinned problem: final loss %.17g differs from golden %.17g", u.finalLoss, want)
	}
}

// run measures the workload for about the given window.
func (c trainConfig) run(seed int64, window time.Duration, traced bool) (*outcome, *recorder) {
	out := newOutcome()
	if traced {
		return out, c.runTraced(seed, out)
	}
	// Even units train the problem --seed generates and odd units the pinned
	// one; both do the same work at the same shapes, so both feed every rate.
	var units []trainUnit
	var setups, rates, finest, toLoss []float64
	start := time.Now()
	for len(units) < 2 || time.Since(start) < window {
		release()
		pinned := len(units)%2 == 1
		unitSeed := seed
		if pinned {
			unitSeed = goldenSeed
		}
		u, err := c.runUnit(unitSeed, nil, out)
		if err != nil {
			if out.failed == 0 {
				out.fail("%v", err)
			}
			break
		}
		if n := len(units); n >= 2 && u.finalLoss != units[n-2].finalLoss {
			out.fail("unit %d final loss %.17g differs from unit %d's %.17g on the same problem", n, u.finalLoss, n-2, units[n-2].finalLoss)
		}
		if pinned {
			c.checkPinned(u, out)
			toLoss = append(toLoss, millis(u.timeToLoss))
		}
		units = append(units, u)
		setups = append(setups, u.setup.Seconds())
		rates = append(rates, u.samplesPerSec(c.Samples))
		for _, e := range u.epochs {
			if e.res == c.FinestRes {
				finest = append(finest, millis(e.dur))
			}
		}
	}
	if len(units) > 0 {
		c.checkReference(seed, units[0].epochs[0].loss, out)
	}
	if len(units) > 1 {
		fmt.Fprintf(logw, "train: %d units, %d finest-level epochs; pinned problem: target reached after %d epochs, final loss %.17g\n",
			len(units), len(finest), units[1].epochsToLoss, units[1].finalLoss)
	}
	out.set("setup_s", median(setups))
	out.set("ops_per_s", median(rates))
	out.set("p50_ms", median(finest))
	// A run holds too few finest-level epochs for a 90th percentile; the slot
	// carries the time to loss on the pinned problem, the schedule's claim.
	out.set("p90_ms", median(toLoss))
	out.set("peak_rss_mb", peakRSSMB())
	return out, nil
}
