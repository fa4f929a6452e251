package core

import (
	"bytes"
	"errors"
	"fmt"

	"mgdiffnet/internal/fem"
	"mgdiffnet/internal/field"
	"mgdiffnet/internal/nn"
	"mgdiffnet/internal/tensor"
	"mgdiffnet/internal/unet"
)

// Config drives a multigrid training run (Algorithm 1 + the schedules of
// §3.1.2).
type Config struct {
	// Dim is the spatial dimensionality (2 or 3).
	Dim int
	// Strategy is the training schedule (Base, V, W, F, HalfV).
	Strategy Strategy
	// Levels is the number of multigrid levels (paper: 3 or 4).
	Levels int
	// FinestRes is the level-1 nodal resolution.
	FinestRes int
	// Samples is the number of Sobol-sampled diffusivity maps.
	Samples int
	// BatchSize is the global mini-batch size (paper: 64 in 2D studies).
	BatchSize int
	// LR is the Adam learning rate (paper: 1e-5 multigrid study).
	LR float64
	// RestrictionEpochs is the fixed epoch budget of descent stages.
	RestrictionEpochs int
	// MaxEpochsPerStage caps converge-trained (prolongation) stages.
	MaxEpochsPerStage int
	// Patience and MinDelta parameterize early stopping.
	Patience int
	MinDelta float64
	// Adapt enables architectural adaptation (§4.1.2) when moving to a
	// finer resolution.
	Adapt bool
	// Cycles repeats the multigrid schedule (default 1, the paper's
	// choice; §3.1.2 notes extending to several cycles as a possible
	// variation, at the risk of the "moving target" effect). Ignored for
	// the Base strategy.
	Cycles int
	// Seed fixes weight initialization and makes runs reproducible.
	Seed int64
	// Net overrides the default U-Net configuration when non-nil
	// (Dim and Seed are forced to match this Config).
	Net *unet.Config
	// Data overrides the default Sobol log-permeability dataset, letting
	// the same trainer run on any coefficient-field family (e.g. the
	// composite-inclusion fields of the conclusion's application list).
	// When nil, field.NewDataset(Samples, Dim) is used.
	Data DataSource
	// Logf, when non-nil, receives one line per stage for progress logs.
	Logf func(format string, args ...any)
}

// DefaultConfig returns a small but representative configuration for the
// given dimensionality; tests override the fields they exercise.
func DefaultConfig(dim int) Config {
	return Config{
		Dim:               dim,
		Strategy:          HalfV,
		Levels:            3,
		FinestRes:         32,
		Samples:           16,
		BatchSize:         8,
		LR:                1e-3,
		RestrictionEpochs: 2,
		MaxEpochsPerStage: 40,
		Patience:          4,
		MinDelta:          1e-5,
		Seed:              42,
	}
}

// validate checks the fields one model replica needs; RunSchedule checks
// the schedule's own (epoch budgets, patience) on top.
func (c *Config) validate() error {
	switch {
	case c.Dim != 2 && c.Dim != 3:
		return fmt.Errorf("core: Dim must be 2 or 3, got %d", c.Dim)
	case c.Levels < 1:
		return fmt.Errorf("core: Levels must be >= 1, got %d", c.Levels)
	case c.BatchSize < 1 || c.Samples < 1:
		return errors.New("core: Samples and BatchSize must be >= 1")
	}
	return nil
}

// EpochRecord is one epoch of the loss trajectory (Figure 8).
type EpochRecord struct {
	Stage int     // index into Report.Stages
	Res   int     // resolution trained at
	Loss  float64 // mean mini-batch loss of the epoch
}

// StageReport summarizes one schedule stage.
type StageReport struct {
	Stage     Stage
	Epochs    int
	FinalLoss float64
	Seconds   float64
	Adapted   bool // architectural adaptation applied entering this stage
}

// Report is the outcome of a training run.
type Report struct {
	Strategy     Strategy
	Stages       []StageReport
	History      []EpochRecord
	FinalLoss    float64
	TotalSeconds float64
}

// TimePerLevel aggregates stage wall-clock by level (Figure 7's pie chart).
// The returned map is level → seconds.
func (r *Report) TimePerLevel() map[int]float64 {
	out := map[int]float64{}
	for _, s := range r.Stages {
		out[s.Stage.Level] += s.Seconds
	}
	return out
}

// DataSource supplies batched coefficient fields at any resolution. It is
// satisfied by field.Dataset (the paper's Sobol log-permeability family)
// and field.InclusionDataset (composite microstructures). Implementations
// must be safe for concurrent Batch calls: the replicas of a
// dist.ParallelTrainer share one source.
type DataSource interface {
	// Len returns the number of samples.
	Len() int
	// Batch rasterizes count samples starting at start (wrapping) into a
	// [count, 1, spatial...] tensor at the given nodal resolution.
	Batch(start, count, res int) *tensor.Tensor
}

// batchReuser is the optional DataSource fast path: rasterize a mini-batch
// into a caller-owned tensor instead of allocating one per call.
// field.Dataset implements it.
type batchReuser interface {
	BatchInto(dst *tensor.Tensor, start, count, res int) *tensor.Tensor
}

// Trainer is one model replica that can take an optimisation step: it owns
// the network, loss, dataset and optimizer of one run. The network's
// parameters are arena-backed (nn.Arena): gradients live in one contiguous
// slab zeroed with a single memset per batch, and the Adam update runs as
// a fused sweep over the flat slabs. Because the trainer owns its network
// and loss outright and consumes every activation within the step, it
// turns on their buffer and scratch reuse itself. dist.ParallelTrainer's
// replicas embed a Trainer, so single-process and distributed runs share
// one step and one checkpoint encoding.
type Trainer struct {
	Cfg   Config
	Net   *unet.UNet
	Loss  *fem.EnergyLoss
	Data  DataSource
	Opt   *nn.Adam
	Arena *nn.Arena

	in *tensor.Tensor // reused mini-batch input (batchReuser sources)
}

// NewTrainer is BuildTrainer for callers whose configuration is fixed in
// code: an invalid one panics.
func NewTrainer(cfg Config) *Trainer {
	t, err := BuildTrainer(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// BuildTrainer builds a trainer with a fresh U-Net and, unless cfg.Data
// overrides it, the Sobol dataset.
func BuildTrainer(cfg Config) (*Trainer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var ncfg unet.Config
	if cfg.Net != nil {
		ncfg = *cfg.Net
	} else {
		ncfg = unet.DefaultConfig(cfg.Dim)
	}
	ncfg.Dim = cfg.Dim
	ncfg.Seed = cfg.Seed
	net := unet.New(ncfg)
	// Every level halves the finest resolution exactly, and a network that
	// takes the coarsest level's size takes every finer one.
	coarsest := cfg.FinestRes >> (cfg.Levels - 1)
	if coarsest<<(cfg.Levels-1) != cfg.FinestRes {
		return nil, fmt.Errorf("core: FinestRes %d does not halve exactly over %d levels", cfg.FinestRes, cfg.Levels)
	}
	if err := net.ValidateRes(coarsest); err != nil {
		return nil, fmt.Errorf("core: level %d of FinestRes %d: %w", cfg.Levels, cfg.FinestRes, err)
	}
	net.SetBufferReuse(true)
	loss := fem.NewEnergyLoss(cfg.Dim)
	loss.SetScratchReuse(true)

	data := cfg.Data
	if data == nil {
		data = field.NewDataset(cfg.Samples, cfg.Dim)
	}
	params := net.Params()
	return &Trainer{
		Cfg:   cfg,
		Net:   net,
		Loss:  loss,
		Data:  data,
		Opt:   nn.NewAdam(params, cfg.LR),
		Arena: nn.NewArena(params),
	}, nil
}

// ForwardLoss is the first half of Algorithm 1's step on samples
// [start, start+count): rasterize them into the trainer's input tensor,
// run the network and evaluate the loss. It returns the per-sample mean
// loss and its gradient with respect to the prediction, which stays valid
// until the next call. With train set the gradient slab is zeroed first
// and the activations Backward needs are cached.
func (t *Trainer) ForwardLoss(start, count, res int, train bool) (float64, *tensor.Tensor) {
	var nu *tensor.Tensor
	if br, ok := t.Data.(batchReuser); ok {
		t.in = br.BatchInto(t.in, start, count, res)
		nu = t.in
	} else {
		nu = t.Data.Batch(start, count, res)
	}
	if train {
		t.Arena.ZeroGrad()
	}
	pred := t.Net.Forward(nu, train)
	return t.Loss.Eval(pred, nu)
}

// epoch is the single-replica epoch loop behind TrainEpoch and EvalLoss.
// The final mini-batch is clamped when Samples is not divisible by
// BatchSize — wrapping it around would train the first samples twice per
// epoch — and each batch's (per-sample mean) loss is weighted by its
// sample count so the epoch mean is per-sample, not per-batch.
func (t *Trainer) epoch(res int, train bool) (float64, error) {
	if err := t.Net.ValidateRes(res); err != nil {
		return 0, err
	}
	bs := t.Cfg.BatchSize
	ns := t.Data.Len()
	total := 0.0
	for lo := 0; lo < ns; lo += bs {
		n := min(bs, ns-lo)
		loss, grad := t.ForwardLoss(lo, n, res, train)
		if train {
			t.Net.Backward(grad)
			t.Opt.Step()
		}
		total += loss * float64(n)
	}
	return total / float64(ns), nil
}

// TrainEpoch runs one epoch at the given resolution following Algorithm 1
// and returns the mean per-sample loss. It implements EpochBackend; the
// only error is a resolution the network cannot take.
func (t *Trainer) TrainEpoch(res int) (float64, error) { return t.epoch(res, true) }

// EvalLoss computes the mean per-sample loss over the dataset at the given
// resolution without updating weights. It implements EpochBackend.
func (t *Trainer) EvalLoss(res int) (float64, error) { return t.epoch(res, false) }

// Params implements EpochBackend: the network's live parameters.
func (t *Trainer) Params() []*nn.Param { return t.Net.Params() }

// Adapt implements AdaptingBackend: one §4.1.2 adaptation step on the
// network. The arena and the optimizer are then rebuilt over the network's
// parameters, as ImportState builds them: the fresh layers join both, and
// the transpose convolution the step drops leaves both, since no backward
// pass writes its gradient any more.
func (t *Trainer) Adapt() error {
	t.Opt.ExtendParams(t.Net.Adapt())
	params := t.Net.Params()
	st, err := t.Opt.ExportStateFor(params)
	if err != nil {
		return err
	}
	opt, err := nn.NewAdamFromState(params, t.Opt.LR, st)
	if err != nil {
		return err
	}
	t.Opt, t.Arena = opt, nn.NewArena(params)
	return nil
}

// ExportState implements StatefulBackend: a unet gob snapshot plus the
// Adam state in the network's parameter order.
func (t *Trainer) ExportState() ([]byte, nn.AdamState, error) {
	var buf bytes.Buffer
	if err := t.Net.Save(&buf); err != nil {
		return nil, nn.AdamState{}, err
	}
	st, err := t.Opt.ExportStateFor(t.Net.Params())
	if err != nil {
		return nil, nn.AdamState{}, err
	}
	return buf.Bytes(), st, nil
}

// ImportState implements StatefulBackend, replacing the trainer's network
// and optimizer with the snapshot's state. Parameters dropped by a later
// adaptation are absent from the restored optimizer; their updates never
// influence a live parameter, so the restored trajectory is bit-identical
// on the network's parameters.
func (t *Trainer) ImportState(netBytes []byte, opt nn.AdamState) error {
	u, err := unet.Load(bytes.NewReader(netBytes))
	if err != nil {
		return err
	}
	params := u.Params()
	arena := nn.NewArena(params)
	o, err := nn.NewAdamFromState(params, t.Cfg.LR, opt)
	if err != nil {
		return err
	}
	u.SetBufferReuse(true)
	t.Net, t.Opt, t.Arena = u, o, arena
	return nil
}

// Run executes the configured schedule via RunSchedule with the trainer as
// its own backend and returns the report.
func (t *Trainer) Run() *Report {
	rep, err := RunSchedule(t.Cfg, t, RunOptions{})
	if err != nil {
		// Run passes no checkpoint options and NewTrainer vetted every
		// level's resolution; only a programming error can land here.
		panic(err)
	}
	return rep
}

// Predict evaluates the trained network on one parameter vector at the
// given resolution and returns the solution field with exact boundary
// values imposed ([res,res] or [res,res,res]).
func (t *Trainer) Predict(w field.Omega, res int) *tensor.Tensor {
	shape := field.Shape(t.Cfg.Dim, res)
	nu := tensor.New(append([]int{1, 1}, shape...)...)
	field.RasterInto(nu.Data, w, t.Cfg.Dim, res)
	return t.Loss.WithBC(t.Net.Forward(nu, false)).Reshape(shape...)
}

// PredictField evaluates the trained network on an explicit coefficient
// batch ([N, 1, spatial...]) and returns the BC-imposed solution batch of
// the same shape. It is the inference entry point for data sources that
// are not parameterized by ω (e.g. composite microstructures).
func (t *Trainer) PredictField(nu *tensor.Tensor) *tensor.Tensor {
	pred := t.Net.Forward(nu, false)
	return t.Loss.WithBC(pred)
}

// RestrictInput is the multigrid restriction operator on input fields: a
// 2× average pooling, exposed for tests and ablations comparing "restrict
// the fine raster" against "rasterize at the coarse grid".
func RestrictInput(nu *tensor.Tensor) *tensor.Tensor {
	return nn.AvgPoolApply(nu, 2)
}
