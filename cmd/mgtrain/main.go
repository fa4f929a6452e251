// Command mgtrain trains an MGDiffNet model with one of the paper's
// multigrid schedules over the data-parallel trainer (one worker by
// default) and optionally saves the weights for cmd/mginfer. Long runs can
// write durable checkpoints and resume after a kill with bit-identical
// results.
//
// Data parallelism comes in two transports: in-process worker goroutines
// (-workers) and a multi-process TCP world (-transport tcp), where every
// process is one rank of the same collective and trains bit-identically to
// the in-process mesh. With -elastic, surviving ranks of a TCP world
// detect a dead rank, reform without it, and resume from the last shared
// checkpoint.
//
// Examples:
//
//	mgtrain -dim 2 -strategy half-v -res 64 -levels 3 -samples 32 -o model.bin
//	mgtrain -workers 4 -checkpoint run.ck -checkpoint-every 5 ...
//	mgtrain -workers 4 -checkpoint run.ck -resume ...   # after a kill
//	mgtrain -transport tcp -rank 0 -peers host0:7000,host1:7000 \
//	        -elastic -checkpoint run.ck ...             # one process per rank
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"mgdiffnet/internal/core"
	"mgdiffnet/internal/dist"
	"mgdiffnet/internal/field"
	"mgdiffnet/internal/unet"
)

func parseStrategy(s string) (core.Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "base":
		return core.Base, nil
	case "v":
		return core.V, nil
	case "w":
		return core.W, nil
	case "f":
		return core.F, nil
	case "half-v", "halfv", "hv":
		return core.HalfV, nil
	}
	return core.Base, fmt.Errorf("unknown strategy %q (want base, v, w, f or half-v)", s)
}

// trainFlags collects every flag value so validation can run before any
// trainer is constructed.
type trainFlags struct {
	dim, res, levels, samples, batch  int
	restEpochs, maxEpochs, patience   int
	cycles, filters, workers, ckEvery int
	lr                                float64
	adapt, resume                     bool
	seed                              int64
	out, checkpoint                   string

	transport, peers       string
	rank                   int
	elastic                bool
	hbInterval, hbTimeout  time.Duration
	opTimeout, dialTimeout time.Duration
	peerList               []string // parsed from peers by validate
}

// validate rejects inconsistent flag combinations with one-line errors so
// main can exit 2 instead of surfacing a panic stack trace from deep in
// the trainer.
func (f *trainFlags) validate() error {
	if f.dim != 2 && f.dim != 3 {
		return fmt.Errorf("-dim must be 2 or 3, got %d", f.dim)
	}
	if f.levels < 1 {
		return fmt.Errorf("-levels must be >= 1, got %d", f.levels)
	}
	if f.res < 1 {
		return fmt.Errorf("-res must be >= 1, got %d", f.res)
	}
	if err := field.CheckVoxels(f.dim, f.res); err != nil {
		return fmt.Errorf("-res: %w", err)
	}
	// A shift by 64 or more yields 0, so a huge -levels fails here too
	// instead of dividing by zero.
	if f.res>>(f.levels-1)<<(f.levels-1) != f.res {
		return fmt.Errorf("-res %d must be divisible by 2^(levels-1) = 2^%d", f.res, f.levels-1)
	}
	if f.samples < 1 {
		return fmt.Errorf("-samples must be >= 1, got %d", f.samples)
	}
	if f.batch < 1 {
		return fmt.Errorf("-batch must be >= 1, got %d", f.batch)
	}
	if !(f.lr > 0) || math.IsInf(f.lr, 1) {
		return fmt.Errorf("-lr must be finite and > 0, got %g", f.lr)
	}
	if f.restEpochs < 1 {
		return fmt.Errorf("-restriction-epochs must be >= 1, got %d", f.restEpochs)
	}
	if f.maxEpochs < 1 {
		return fmt.Errorf("-max-epochs must be >= 1, got %d", f.maxEpochs)
	}
	if f.patience < 1 {
		return fmt.Errorf("-patience must be >= 1, got %d", f.patience)
	}
	if f.cycles < 1 {
		return fmt.Errorf("-cycles must be >= 1, got %d", f.cycles)
	}
	if f.filters < 1 {
		return fmt.Errorf("-filters must be >= 1, got %d", f.filters)
	}
	if f.workers < 1 {
		return fmt.Errorf("-workers must be >= 1, got %d", f.workers)
	}
	if f.ckEvery < 1 {
		return fmt.Errorf("-checkpoint-every must be >= 1, got %d", f.ckEvery)
	}
	if f.resume && f.checkpoint == "" {
		return errors.New("-resume requires -checkpoint")
	}
	switch f.transport {
	case "inproc":
		if f.rank >= 0 {
			return errors.New("-rank only applies to -transport tcp")
		}
		if f.peers != "" {
			return errors.New("-peers only applies to -transport tcp")
		}
		if f.elastic {
			return errors.New("-elastic only applies to -transport tcp")
		}
	case "tcp":
		if f.rank < 0 {
			return errors.New("-transport tcp requires -rank")
		}
		if f.peers == "" {
			return errors.New("-transport tcp requires -peers")
		}
		if f.workers != 1 {
			return errors.New("-transport tcp runs one process per rank; drop -workers and start one mgtrain per peer")
		}
		f.peerList = strings.Split(f.peers, ",")
		for i, a := range f.peerList {
			f.peerList[i] = strings.TrimSpace(a)
		}
		if err := dist.ValidateWorld(f.rank, f.peerList); err != nil {
			return err
		}
		if f.elastic && f.checkpoint == "" {
			return errors.New("-elastic requires -checkpoint (survivors resume from it)")
		}
		if f.hbInterval <= 0 || f.hbTimeout <= 0 {
			return errors.New("-heartbeat-interval and -heartbeat-timeout must be > 0")
		}
		if f.hbTimeout < 2*f.hbInterval {
			return fmt.Errorf("-heartbeat-timeout %v must be at least twice -heartbeat-interval %v", f.hbTimeout, f.hbInterval)
		}
		if f.dialTimeout <= 0 {
			return errors.New("-dial-timeout must be > 0")
		}
	default:
		return fmt.Errorf("unknown transport %q (want inproc or tcp)", f.transport)
	}
	// The default U-Net halves the extent Depth times, so the coarsest
	// level must still be a positive multiple of its minimum input size.
	min := 1 << unet.DefaultConfig(f.dim).Depth
	coarsest := f.res >> (f.levels - 1)
	if coarsest < min || coarsest%min != 0 {
		return fmt.Errorf("coarsest resolution %d (res %d over %d levels) must be a positive multiple of the U-Net minimum input size %d",
			coarsest, f.res, f.levels, min)
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	// The TCP transport logs from its read loop while training writes
	// progress, so every write to stdout goes through one lock.
	stdout = &lockedWriter{w: stdout}
	// Residual invalid-configuration panics become one-line errors too.
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(stderr, "mgtrain: %v\n", r)
			code = 2
		}
	}()

	fs := flag.NewFlagSet("mgtrain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f trainFlags
	var strategy string
	fs.IntVar(&f.dim, "dim", 2, "spatial dimensionality (2 or 3)")
	fs.StringVar(&strategy, "strategy", "half-v", "training schedule: base, v, w, f, half-v")
	fs.IntVar(&f.res, "res", 64, "finest nodal resolution")
	fs.IntVar(&f.levels, "levels", 3, "number of multigrid levels")
	fs.IntVar(&f.samples, "samples", 32, "number of Sobol diffusivity maps")
	fs.IntVar(&f.batch, "batch", 8, "global mini-batch size")
	fs.Float64Var(&f.lr, "lr", 1e-3, "Adam learning rate")
	fs.IntVar(&f.restEpochs, "restriction-epochs", 2, "epochs per restriction stage")
	fs.IntVar(&f.maxEpochs, "max-epochs", 30, "epoch cap per prolongation stage")
	fs.IntVar(&f.patience, "patience", 4, "early-stopping patience")
	fs.BoolVar(&f.adapt, "adapt", false, "enable architectural adaptation (Table 2)")
	fs.IntVar(&f.cycles, "cycles", 1, "number of multigrid cycles (paper uses 1)")
	fs.IntVar(&f.filters, "filters", 16, "U-Net base filter count")
	fs.Int64Var(&f.seed, "seed", 42, "initialization seed")
	fs.IntVar(&f.workers, "workers", 1, "in-process data-parallel worker count")
	fs.StringVar(&f.checkpoint, "checkpoint", "", "checkpoint file path (enables durable snapshots)")
	fs.IntVar(&f.ckEvery, "checkpoint-every", 1, "epochs between checkpoint snapshots")
	fs.BoolVar(&f.resume, "resume", false, "resume from -checkpoint if it exists")
	fs.StringVar(&f.out, "o", "", "output path for the trained model (gob)")
	fs.StringVar(&f.transport, "transport", "inproc", "data-parallel transport: inproc (in-process workers) or tcp (one process per rank)")
	fs.IntVar(&f.rank, "rank", -1, "this process's rank in the -peers list (tcp)")
	fs.StringVar(&f.peers, "peers", "", "comma-separated host:port of every rank, in rank order (tcp)")
	fs.BoolVar(&f.elastic, "elastic", false, "on a rank failure, reform the surviving ranks and resume from -checkpoint (tcp)")
	fs.DurationVar(&f.hbInterval, "heartbeat-interval", 500*time.Millisecond, "max send-idle time before a heartbeat frame (tcp)")
	fs.DurationVar(&f.hbTimeout, "heartbeat-timeout", 5*time.Second, "receive silence after which a peer is declared dead (tcp)")
	fs.DurationVar(&f.opTimeout, "op-timeout", 2*time.Minute, "per-operation send/recv deadline (tcp)")
	fs.DurationVar(&f.dialTimeout, "dial-timeout", 30*time.Second, "total rendezvous budget for assembling the world (tcp)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	strat, err := parseStrategy(strategy)
	if err != nil {
		fmt.Fprintln(stderr, "mgtrain:", err)
		return 2
	}
	if err := f.validate(); err != nil {
		fmt.Fprintln(stderr, "mgtrain:", err)
		return 2
	}

	ncfg := unet.DefaultConfig(f.dim)
	ncfg.BaseFilters = f.filters

	cfg := core.Config{
		Dim:               f.dim,
		Strategy:          strat,
		Levels:            f.levels,
		FinestRes:         f.res,
		Samples:           f.samples,
		BatchSize:         f.batch,
		LR:                f.lr,
		RestrictionEpochs: f.restEpochs,
		MaxEpochsPerStage: f.maxEpochs,
		Patience:          f.patience,
		MinDelta:          1e-6,
		Adapt:             f.adapt,
		Cycles:            f.cycles,
		Seed:              f.seed,
		Net:               &ncfg,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stdout, format+"\n", args...)
		},
	}

	if f.transport == "tcp" {
		return runTCP(&f, cfg, &ncfg, stdout, stderr)
	}

	pt, err := dist.NewParallelTrainer(parallelConfig(&f, &ncfg, nil))
	if err != nil {
		fmt.Fprintln(stderr, "mgtrain:", err)
		return 2
	}
	defer pt.Close()
	code, err = train(&f, cfg, pt, fmt.Sprintf("%d workers", f.workers), true, f.resume, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "mgtrain:", err)
	}
	return code
}

// lockedWriter serializes the writes of several goroutines to w.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// parallelConfig is the data-parallel trainer the flags describe: f.workers
// in-process replicas, or this process's rank of tr's world.
func parallelConfig(f *trainFlags, ncfg *unet.Config, tr dist.Transport) dist.ParallelConfig {
	pc := dist.ParallelConfig{
		Transport:   tr,
		Dim:         f.dim,
		Res:         f.res,
		Samples:     f.samples,
		GlobalBatch: f.batch,
		LR:          f.lr,
		Seed:        f.seed,
		Net:         ncfg,
	}
	if tr == nil {
		pc.Workers = f.workers
	}
	return pc
}

// train runs one schedule over pt: it loads the resume point, trains,
// reports and saves the model. writer marks the process that owns the
// checkpoint file and the output model — every in-process run, global rank
// 0 of a TCP world. A failed schedule comes back as the error, unreported,
// for the caller's transport to judge; otherwise the int is the exit code.
func train(f *trainFlags, cfg core.Config, pt *dist.ParallelTrainer, world string, writer, resume bool, stdout, stderr io.Writer) (int, error) {
	opts := core.RunOptions{CheckpointEvery: f.ckEvery}
	if writer {
		opts.CheckpointPath = f.checkpoint
	}
	if resume {
		ck, err := core.LoadCheckpoint(f.checkpoint)
		switch {
		case errors.Is(err, os.ErrNotExist):
			fmt.Fprintf(stdout, "mgtrain: no checkpoint at %s yet, starting fresh\n", f.checkpoint)
		case err != nil:
			fmt.Fprintln(stderr, "mgtrain:", err)
			return 2, nil
		default:
			opts.Resume = ck
		}
	}

	fmt.Fprintf(stdout, "mgtrain: %s, %dD, finest res %d, %d levels, %s\n",
		cfg.Strategy, f.dim, f.res, f.levels, world)
	rep, err := core.RunSchedule(cfg, pt, opts)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "done: final loss %.6f in %.2fs over %d stages\n",
		rep.FinalLoss, rep.TotalSeconds, len(rep.Stages))
	perLevel := rep.TimePerLevel()
	for _, lv := range slices.Sorted(maps.Keys(perLevel)) {
		fmt.Fprintf(stdout, "  level %d: %.2fs\n", lv, perLevel[lv])
	}

	if f.out != "" && writer {
		if err := pt.Net().SaveFile(f.out); err != nil {
			fmt.Fprintln(stderr, "mgtrain: save:", err)
			return 1, nil
		}
		fmt.Fprintf(stdout, "model written to %s\n", f.out)
	}
	return 0, nil
}

// runTCP runs this process as one rank of a multi-process TCP world. The
// loop body is one world incarnation: rendezvous, train, and — when a rank
// dies and -elastic is set — abort with gossip, shrink the address list,
// and go around again as a rank of the smaller world, resuming from the
// shared checkpoint. Only global rank 0 writes the checkpoint (and the
// final model): per-rank checkpoints could disagree about how far training
// got at the moment of a failure, while a single writer leaves exactly one
// resume point that every survivor reads.
func runTCP(f *trainFlags, cfg core.Config, ncfg *unet.Config, stdout, stderr io.Writer) int {
	peers := f.peerList
	rank := f.rank
	self := peers[rank]

	opt := dist.DefaultTCPOptions()
	opt.HeartbeatInterval = f.hbInterval
	opt.HeartbeatTimeout = f.hbTimeout
	opt.OpTimeout = f.opTimeout
	opt.DialTimeout = f.dialTimeout
	opt.Logf = func(format string, args ...any) { fmt.Fprintf(stdout, "mgtrain: "+format+"\n", args...) }

	for attempt := 0; ; attempt++ {
		tr, err := dist.NewTCPTransport(rank, peers, opt)
		if err != nil {
			fmt.Fprintln(stderr, "mgtrain:", err)
			return 1
		}
		pt, err := dist.NewParallelTrainer(parallelConfig(f, ncfg, tr))
		if err != nil {
			tr.Close()
			fmt.Fprintln(stderr, "mgtrain:", err)
			return 2
		}
		// Every rank of a resuming or reformed world loads the same shared
		// checkpoint file, so all replicas restart bit-identical.
		resume := f.checkpoint != "" && (f.resume || attempt > 0)
		code, err := train(f, cfg, pt, fmt.Sprintf("tcp rank %d of %d", rank, len(peers)), rank == 0, resume, stdout, stderr)
		pt.Close()
		if err == nil {
			tr.Close()
			return code
		}

		dead := tr.Failed()
		tr.CloseAbort(dead)
		if !f.elastic || len(dead) == 0 || len(dead) >= len(peers)-1 {
			fmt.Fprintln(stderr, "mgtrain:", err)
			return 1
		}
		survivors := make([]string, 0, len(peers)-len(dead))
		for q, addr := range peers {
			if !slices.Contains(dead, q) {
				survivors = append(survivors, addr)
			}
		}
		peers = survivors
		rank = slices.Index(peers, self)
		if rank < 0 {
			// This rank is in somebody's dead set (e.g. a transient stall):
			// it must not rejoin a world that has already written it off.
			fmt.Fprintln(stderr, "mgtrain: this rank was declared dead by the surviving world; exiting")
			return 1
		}
		fmt.Fprintf(stdout, "mgtrain: ranks %v dead after %v; reforming as rank %d of %d from checkpoint %s\n",
			dead, err, rank, len(peers), f.checkpoint)
	}
}
