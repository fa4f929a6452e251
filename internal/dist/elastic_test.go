package dist

// Elastic recovery, end to end on the transport `mgtrain -elastic` runs:
// kill a rank of a local TCP world mid-run, let the survivors abort with
// the dead set, reform a smaller world, resume from the last checkpoint,
// and match a fresh run at the smaller world size bit for bit.

import (
	"errors"
	"os"
	"slices"
	"sync"
	"testing"

	"mgdiffnet/internal/core"
)

// killingParallel terminates its TCP endpoint after a fixed number of
// epochs and errors out, the wire picture of a SIGKILL mid-run: the rank
// stops participating in collectives without any goodbye.
type killingParallel struct {
	*ParallelTrainer
	tr        *TCPTransport
	failAfter int
	calls     int
}

var errSimKill = errors.New("simulated rank kill")

func (k *killingParallel) TrainEpoch(res int) (float64, error) {
	if k.calls >= k.failAfter {
		k.tr.Terminate()
		return 0, errSimKill
	}
	k.calls++
	return k.ParallelTrainer.TrainEpoch(res)
}

func newTransportPT(t *testing.T, cfg core.Config, tr Transport, bucketElems int) *ParallelTrainer {
	t.Helper()
	pt, err := NewParallelTrainer(ParallelConfig{
		Transport:   tr,
		Dim:         cfg.Dim,
		Res:         cfg.FinestRes,
		Samples:     cfg.Samples,
		GlobalBatch: cfg.BatchSize,
		LR:          cfg.LR,
		Seed:        cfg.Seed,
		Net:         cfg.Net,
		BucketElems: bucketElems,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// The elastic recovery contract, end to end: a 3-rank TCP world trains
// with rank 0 checkpointing every epoch; rank 2 is terminated mid-run; each
// survivor's schedule fails on the dead or departed peer (not a hang, not
// a deadline) and aborts with its dead set, as mgtrain's runTCP does; a
// reformed 2-rank world resumes from the shared checkpoint and finishes —
// with weights and losses bit-identical to a fresh 2-worker run resumed
// from that same checkpoint. Epochs after the last snapshot are re-run at
// the new world size; nothing saved is lost.
func TestElasticShrinkResumeFromCheckpoint(t *testing.T) {
	cfg := multigridCfg()
	ckPath := t.TempDir() + "/elastic.ck"

	world, err := NewLocalTCPWorld(3, DefaultTCPOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld(world)
	pts := make([]*ParallelTrainer, 3)
	for r := range pts {
		pts[r] = newTransportPT(t, cfg, world[r], 0)
		defer pts[r].Close()
	}

	errs := make([]error, 3)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			opts := core.RunOptions{CheckpointEvery: 1}
			if r == 0 {
				// One writer: per-rank checkpoints could disagree about how
				// far training got at the kill; rank 0's file is the single
				// resume point every survivor reads.
				opts.CheckpointPath = ckPath
			}
			var backend core.EpochBackend = pts[r]
			if r == 2 {
				backend = &killingParallel{ParallelTrainer: pts[r], tr: world[r], failAfter: 3}
			}
			_, errs[r] = core.RunSchedule(cfg, backend, opts)
			if r != 2 && errs[r] != nil {
				world[r].CloseAbort(world[r].Failed())
			}
		}(r)
	}
	wg.Wait()

	if !errors.Is(errs[2], errSimKill) {
		t.Fatalf("killed rank: %v, want the injected kill", errs[2])
	}
	for _, r := range []int{0, 1} {
		if !errors.Is(errs[r], ErrPeerDead) && !errors.Is(errs[r], ErrPeerLeft) {
			t.Fatalf("survivor rank %d: %v, want ErrPeerDead or ErrPeerLeft", r, errs[r])
		}
		if failed := world[r].Failed(); !slices.Equal(failed, []int{2}) {
			t.Fatalf("survivor rank %d declared %v dead, want [2]", r, failed)
		}
	}
	if _, err := os.Stat(ckPath); err != nil {
		t.Fatalf("no checkpoint written before the kill: %v", err)
	}

	// Survivors reform as a fresh 2-rank world and resume from the shared
	// checkpoint.
	ck, err := core.LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	world2, err := NewLocalTCPWorld(2, DefaultTCPOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld(world2)
	pts2 := make([]*ParallelTrainer, 2)
	reps2 := make([]*core.Report, 2)
	errs2 := make([]error, 2)
	for r := range pts2 {
		pts2[r] = newTransportPT(t, cfg, world2[r], 0)
		defer pts2[r].Close()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			reps2[r], errs2[r] = core.RunSchedule(cfg, pts2[r], core.RunOptions{Resume: ck})
		}(r)
	}
	wg.Wait()
	for r, err := range errs2 {
		if err != nil {
			t.Fatalf("reformed rank %d: %v", r, err)
		}
	}

	// Reference: a fresh in-process 2-worker trainer resumed from the very
	// same checkpoint. The reformed world must match it bit for bit.
	fresh := newMultigridPT(t, cfg, 2)
	defer fresh.Close()
	repRef, err := core.RunSchedule(cfg, fresh, core.RunOptions{Resume: ck})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		requireSameParams(t, "reformed rank vs fresh 2-worker", fresh.Net().Params(), pts2[r].Net().Params())
		if reps2[r].FinalLoss != repRef.FinalLoss {
			t.Fatalf("reformed rank %d final loss %v vs fresh %v", r, reps2[r].FinalLoss, repRef.FinalLoss)
		}
		if len(reps2[r].History) != len(repRef.History) {
			t.Fatalf("reformed rank %d trained %d epochs vs fresh %d",
				r, len(reps2[r].History), len(repRef.History))
		}
		for i := range repRef.History {
			if reps2[r].History[i].Loss != repRef.History[i].Loss {
				t.Fatalf("reformed rank %d epoch %d loss %v vs fresh %v — loss trajectories must match",
					r, i, reps2[r].History[i].Loss, repRef.History[i].Loss)
			}
		}
	}
}
