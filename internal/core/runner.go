package core

import (
	"fmt"
	"time"

	"mgdiffnet/internal/nn"
)

// EpochBackend is what the schedule runner drives: anything that can train
// one epoch and evaluate the dataset loss at a chosen multigrid
// resolution. core.Trainer (one replica) and dist.ParallelTrainer (p
// replicas, each an embedded core.Trainer plus a communicator) both
// implement it, which is what lets every V/W/F/Half-V strategy run
// distributed: the runner is agnostic to how an epoch is computed, and the
// backend re-shards the global batch at whatever resolution each stage
// requests.
type EpochBackend interface {
	// TrainEpoch runs one optimization epoch at the given nodal resolution
	// and returns the mean per-sample loss.
	TrainEpoch(res int) (float64, error)
	// EvalLoss returns the mean per-sample loss at the given resolution
	// without updating weights. The runner itself early-stops on the
	// training loss (the paper's criterion); EvalLoss is part of the
	// backend contract for experiment harnesses and diagnostics, and the
	// dist implementation shards it like a training epoch.
	EvalLoss(res int) (float64, error)
	// Params returns the trainable parameters of the (canonical) model.
	Params() []*nn.Param
}

// AdaptingBackend is implemented by backends that support the paper's
// §4.1.2 architectural adaptation when the schedule moves to a finer grid.
type AdaptingBackend interface {
	// Adapt applies one adaptation step and registers the fresh parameters
	// with the optimizer.
	Adapt() error
}

// StatefulBackend is implemented by backends whose full training state can
// be checkpointed: a unet gob snapshot plus the Adam state in the
// network's parameter order. Export followed by Import must reproduce the
// training trajectory bit for bit. core.Trainer's implementation is the
// only one — dist.ParallelTrainer delegates to its replicas' — so a
// checkpoint written by a single-process run restores into a distributed
// one and vice versa.
type StatefulBackend interface {
	ExportState() (net []byte, opt nn.AdamState, err error)
	ImportState(net []byte, opt nn.AdamState) error
}

// RunOptions controls checkpointing and resumption of RunSchedule.
type RunOptions struct {
	// CheckpointPath, when non-empty, enables durable snapshots (written
	// atomically; see SaveCheckpoint). The backend must implement
	// StatefulBackend.
	CheckpointPath string
	// CheckpointEvery is the number of epochs between snapshots; values
	// below 1 mean every epoch.
	CheckpointEvery int
	// Resume, when non-nil, continues the run recorded in the checkpoint
	// instead of starting fresh. The backend's current weights are
	// replaced by the snapshot's.
	Resume *Checkpoint
}

// RunSchedule executes cfg's multigrid schedule against an arbitrary epoch
// backend and returns the training report. It is the generalization of
// Trainer.Run: restriction stages train a fixed number of epochs,
// prolongation stages train to the early-stopping criterion, architectural
// adaptation fires on coarse-to-fine transitions when enabled, and the
// whole run can be checkpointed and resumed bit-exactly at epoch
// granularity.
func RunSchedule(cfg Config, backend EpochBackend, opts RunOptions) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.MaxEpochsPerStage < 1 {
		return nil, fmt.Errorf("core: MaxEpochsPerStage must be >= 1, got %d", cfg.MaxEpochsPerStage)
	}
	cfg.Patience = max(cfg.Patience, 1)
	if cfg.Adapt {
		if _, ok := backend.(AdaptingBackend); !ok {
			return nil, fmt.Errorf("core: Adapt requires a backend implementing AdaptingBackend, got %T", backend)
		}
	}
	if opts.CheckpointPath != "" || opts.Resume != nil {
		if _, ok := backend.(StatefulBackend); !ok {
			return nil, fmt.Errorf("core: checkpointing requires a backend implementing StatefulBackend, got %T", backend)
		}
	}
	every := opts.CheckpointEvery
	if every < 1 {
		every = 1
	}

	sched := MultiCycleSchedule(cfg.Strategy, cfg.Levels, cfg.FinestRes, cfg.Cycles)
	rep := &Report{Strategy: cfg.Strategy}
	start := time.Now() //mglint:ignore detrand wall-clock telemetry for reported timings; never feeds the numeric path
	startStage, startEpoch := 0, 0
	var resumeStopper *StopperState
	resumeAdapted := false

	if ck := opts.Resume; ck != nil {
		if ck.Key != runKey(cfg) {
			return nil, fmt.Errorf("core: checkpoint was written by an incompatible configuration (%+v)", ck.Key)
		}
		if ck.StageIdx > len(sched) {
			return nil, fmt.Errorf("core: checkpoint stage %d beyond schedule length %d", ck.StageIdx, len(sched))
		}
		if err := backend.(StatefulBackend).ImportState(ck.Net, ck.Opt); err != nil {
			return nil, fmt.Errorf("core: restore backend state: %w", err)
		}
		rep.Stages = append(rep.Stages, ck.Stages...)
		rep.History = append(rep.History, ck.History...)
		startStage, startEpoch = ck.StageIdx, ck.Epoch
		st := ck.Stopper
		resumeStopper = &st
		resumeAdapted = ck.StageAdapted
		if cfg.Logf != nil {
			cfg.Logf("resume: stage %d/%d, epoch %d", startStage+1, len(sched), startEpoch)
		}
	}

	prevRes := 0
	if startStage > 0 {
		prevRes = sched[startStage-1].Res
	}
	epochsSinceSave := 0
	for si := startStage; si < len(sched); si++ {
		st := sched[si]
		begin := time.Now() //mglint:ignore detrand wall-clock telemetry for reported timings; never feeds the numeric path
		sr := StageReport{Stage: st}
		budget := cfg.RestrictionEpochs
		var stop *EarlyStopper
		if st.Phase == Prolongation {
			budget = cfg.MaxEpochsPerStage
			stop = NewEarlyStopper(cfg.Patience, cfg.MinDelta)
		}
		if si == startStage && startEpoch > 0 {
			// Re-enter a partially trained stage: the snapshot already
			// contains any adaptation applied on entry, and the stopper
			// continues from its recorded progress.
			sr.Epochs = startEpoch
			sr.Adapted = resumeAdapted
			if n := len(rep.History); n > 0 {
				sr.FinalLoss = rep.History[n-1].Loss
			}
			if stop != nil && resumeStopper != nil {
				stop.Restore(*resumeStopper)
			}
		} else if cfg.Adapt && prevRes != 0 && st.Res > prevRes {
			if err := backend.(AdaptingBackend).Adapt(); err != nil {
				return nil, fmt.Errorf("core: adaptation entering stage %d: %w", si, err)
			}
			sr.Adapted = true
		}

		stopped := false
		for e := sr.Epochs; e < budget && !stopped; e++ {
			loss, err := backend.TrainEpoch(st.Res)
			if err != nil {
				return nil, fmt.Errorf("core: stage %d epoch %d: %w", si, e, err)
			}
			sr.Epochs++
			sr.FinalLoss = loss
			rep.History = append(rep.History, EpochRecord{Stage: si, Res: st.Res, Loss: loss})
			if stop != nil && stop.Observe(loss) {
				stopped = true
			}
			epochsSinceSave++
			if opts.CheckpointPath != "" && epochsSinceSave >= every {
				stageDone := stopped || sr.Epochs >= budget
				if err := saveProgress(opts.CheckpointPath, cfg, backend, rep, si, sr, stop, stageDone, begin); err != nil {
					return nil, err
				}
				epochsSinceSave = 0
			}
		}
		sr.Seconds = time.Since(begin).Seconds()
		rep.Stages = append(rep.Stages, sr)
		if cfg.Logf != nil {
			cfg.Logf("stage %d/%d: level %d (res %d, %s) epochs=%d loss=%.6f time=%.2fs",
				si+1, len(sched), st.Level, st.Res, st.Phase, sr.Epochs, sr.FinalLoss, sr.Seconds)
		}
		prevRes = st.Res
	}
	rep.TotalSeconds = time.Since(start).Seconds()
	if n := len(rep.Stages); n > 0 {
		rep.FinalLoss = rep.Stages[n-1].FinalLoss
	}
	return rep, nil
}

// saveProgress writes an epoch-aligned checkpoint. When the current stage
// just finished, the cursor advances to the next stage and the completed
// stage report is included, so a resume never re-enters a finished stage.
func saveProgress(path string, cfg Config, backend EpochBackend, rep *Report,
	si int, sr StageReport, stop *EarlyStopper, stageDone bool, begin time.Time) error {
	netBytes, optState, err := backend.(StatefulBackend).ExportState()
	if err != nil {
		return fmt.Errorf("core: export backend state: %w", err)
	}
	ck := &Checkpoint{
		Key:     runKey(cfg),
		History: rep.History,
		Net:     netBytes,
		Opt:     optState,
	}
	if stageDone {
		done := sr
		done.Seconds = time.Since(begin).Seconds()
		ck.Stages = append(append([]StageReport(nil), rep.Stages...), done)
		ck.StageIdx = si + 1
	} else {
		ck.Stages = rep.Stages
		ck.StageIdx = si
		ck.Epoch = sr.Epochs
		ck.StageAdapted = sr.Adapted
		if stop != nil {
			ck.Stopper = stop.State()
		}
	}
	return SaveCheckpoint(path, ck)
}
