package dist

import (
	"math"
	"sync"
	"testing"

	"mgdiffnet/internal/core"
	"mgdiffnet/internal/tensor"
	"mgdiffnet/internal/unet"
)

func TestChunkOffsetsEdges(t *testing.T) {
	cases := []struct {
		n, p int
		want []int
	}{
		{10, 4, []int{0, 3, 6, 8, 10}},
		{3, 4, []int{0, 1, 2, 3, 3}}, // n < p: trailing chunk empty
		{1, 4, []int{0, 1, 1, 1, 1}},
		{0, 4, []int{0, 0, 0, 0, 0}}, // n == 0: all chunks empty
		{8, 1, []int{0, 8}},
		{4, 4, []int{0, 1, 2, 3, 4}},
	}
	for _, c := range cases {
		got := chunkOffsets(c.n, c.p)
		if len(got) != len(c.want) {
			t.Fatalf("chunkOffsets(%d,%d) = %v, want %v", c.n, c.p, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("chunkOffsets(%d,%d) = %v, want %v", c.n, c.p, got, c.want)
			}
		}
	}
}

// runComms executes body concurrently on p ranks over persistent
// communicators and fails on the first error.
func runComms(t *testing.T, p int, body func(c *Communicator) error) {
	t.Helper()
	trs := NewChannelRing(p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = body(NewCommunicator(trs[r]))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// The ring and the communicator collectives must survive degenerate
// lengths: vectors shorter than the rank count and empty vectors.
func TestCollectivesShortAndEmptyVectors(t *testing.T) {
	for _, n := range []int{0, 1, 3} {
		const p = 4
		vecs := testVectors(p, n)
		want := serialSum(vecs)

		got := runAllReduce(t, p, vecs, func(r int, x []float64, tr Transport) error {
			return RingAllReduce(r, p, x, tr)
		})
		for r := 0; r < p; r++ {
			for i := range want {
				if math.Abs(got[r][i]-want[i]) > 1e-12 {
					t.Fatalf("ring n=%d rank %d: got %v want %v", n, r, got[r], want)
				}
			}
		}

		out := make([][]float64, p)
		var mu sync.Mutex
		runComms(t, p, func(c *Communicator) error {
			x := append([]float64(nil), vecs[c.Rank()]...)
			if err := c.AllReduce(x); err != nil {
				return err
			}
			mu.Lock()
			out[c.Rank()] = x
			mu.Unlock()
			return nil
		})
		for r := 0; r < p; r++ {
			for i := range want {
				if out[r][i] != want[i] {
					t.Fatalf("comm n=%d rank %d elem %d: got %g want %g", n, r, i, out[r][i], want[i])
				}
			}
		}
	}
}

// Communicator.AllReduce accumulates every chunk in ascending rank order,
// so the result must equal the serial left-to-right sum bit for bit — a
// stronger bar than the ring's tolerance-based check.
func TestCommunicatorAllReduceIsBitwiseRankOrderSum(t *testing.T) {
	const p, n = 4, 1003
	vecs := testVectors(p, n)
	want := serialSum(vecs)
	runComms(t, p, func(c *Communicator) error {
		x := append([]float64(nil), vecs[c.Rank()]...)
		if err := c.AllReduce(x); err != nil {
			return err
		}
		for i := range want {
			if x[i] != want[i] {
				t.Errorf("rank %d elem %d: got %g want %g (must be bit-identical)", c.Rank(), i, x[i], want[i])
				break
			}
		}
		return nil
	})
}

// AllReduceFrom must skip non-contributing ranks — their buffers are never
// read (they may hold garbage) and the result is the rank-order sum over
// the contributors only.
func TestAllReduceFromSkipsNonContributors(t *testing.T) {
	const p, n = 4, 517
	vecs := testVectors(p, n)
	contrib := []bool{true, false, true, false}
	want := make([]float64, n)
	for i := range want {
		want[i] = vecs[0][i] + vecs[2][i] // rank order over contributors
	}
	runComms(t, p, func(c *Communicator) error {
		x := make([]float64, n)
		if contrib[c.Rank()] {
			copy(x, vecs[c.Rank()])
		} else {
			for i := range x {
				x[i] = math.NaN() // never read, must be overwritten
			}
		}
		if err := c.AllReduceFrom(x, contrib); err != nil {
			return err
		}
		for i := range want {
			if x[i] != want[i] {
				t.Errorf("rank %d elem %d: got %g want %g", c.Rank(), i, x[i], want[i])
				break
			}
		}
		return nil
	})
}

// No contributors at all: the collective must leave zeros everywhere
// rather than hang or propagate garbage.
func TestAllReduceFromNoContributorsZeros(t *testing.T) {
	const p, n = 3, 41
	runComms(t, p, func(c *Communicator) error {
		x := make([]float64, n)
		for i := range x {
			x[i] = math.NaN()
		}
		if err := c.AllReduceFrom(x, make([]bool, p)); err != nil {
			return err
		}
		for i := range x {
			if x[i] != 0 {
				t.Errorf("rank %d elem %d: got %g want 0", c.Rank(), i, x[i])
				break
			}
		}
		return nil
	})
}

// The headline invariant of the overlapped allreduce: reducing a vector as
// fixed-boundary buckets — including boundaries that split what a layer
// would own — is bit-identical to reducing it monolithically, because the
// rank-order accumulation is independent of the chunking.
func TestBucketedAllReduceBitIdenticalToMonolithic(t *testing.T) {
	const p, n = 3, 1000
	vecs := testVectors(p, n)

	mono := make([][]float64, p)
	runComms(t, p, func(c *Communicator) error {
		x := append([]float64(nil), vecs[c.Rank()]...)
		if err := c.AllReduce(x); err != nil {
			return err
		}
		mono[c.Rank()] = x
		return nil
	})

	for _, bucket := range []int{1, 7, 128, 999, 1000, 4096} {
		bucketed := make([][]float64, p)
		runComms(t, p, func(c *Communicator) error {
			x := append([]float64(nil), vecs[c.Rank()]...)
			for lo := 0; lo < n; lo += bucket {
				hi := min(lo+bucket, n)
				if err := c.AllReduce(x[lo:hi]); err != nil {
					return err
				}
			}
			bucketed[c.Rank()] = x
			return nil
		})
		for r := 0; r < p; r++ {
			for i := range mono[r] {
				if bucketed[r][i] != mono[r][i] {
					t.Fatalf("bucket=%d rank %d elem %d: bucketed %g vs monolithic %g — must be bit-identical",
						bucket, r, i, bucketed[r][i], mono[r][i])
				}
			}
		}
	}
}

// End-to-end form of the same invariant through the trainer: the bucket
// size — one huge bucket (monolithic) vs tiny buckets that split layers —
// must not change the trained weights at the bit level, and empty-shard
// batches (workers > clamped batch) must survive it.
func TestBucketSizeDoesNotChangeTrajectory(t *testing.T) {
	train := func(bucketElems int) *ParallelTrainer {
		pt, err := NewParallelTrainer(ParallelConfig{
			Workers: 3, Dim: 2, Res: 8, Samples: 5, GlobalBatch: 2,
			LR: 1e-3, Seed: 31, Net: smallNet(2), BucketElems: bucketElems,
		})
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 2; e++ {
			if _, err := pt.TrainEpoch(8); err != nil {
				t.Fatal(err)
			}
		}
		if div := pt.MaxReplicaDivergence(); div != 0 {
			t.Fatalf("bucketElems=%d: replicas diverged by %g", bucketElems, div)
		}
		return pt
	}
	mono := train(1 << 30) // one bucket: the monolithic schedule
	defer mono.Close()
	for _, be := range []int{64, 1024} {
		pt := train(be)
		ref := mono.Params()
		got := pt.Params()
		for i := range ref {
			for j := range ref[i].Data.Data {
				if got[i].Data.Data[j] != ref[i].Data.Data[j] {
					t.Fatalf("bucketElems=%d: param %d (%s) elem %d differs from monolithic — %g vs %g",
						be, i, ref[i].Name, j, got[i].Data.Data[j], ref[i].Data.Data[j])
				}
			}
		}
		pt.Close()
	}
}

// Steady-state collectives through a persistent Communicator must not
// allocate: the scratch that RingAllReduce used to allocate per call is
// hoisted into the communicator, and the channel transport recycles its
// message buffers. The ranks are pre-spawned so the measurement sees only
// the collective itself.
func TestCommunicatorAllReduceSteadyStateAllocs(t *testing.T) {
	const p, n = 4, 1 << 12
	trs := NewChannelRing(p)
	start := make([]chan struct{}, p)
	done := make([]chan struct{}, p)
	vecs := make([][]float64, p)
	for r := 0; r < p; r++ {
		start[r] = make(chan struct{})
		done[r] = make(chan struct{})
		vecs[r] = make([]float64, n)
	}
	stop := make(chan struct{})
	defer close(stop)
	for r := 0; r < p; r++ {
		go func(r int) {
			c := NewCommunicator(trs[r])
			for {
				select {
				case <-stop:
					return
				case <-start[r]:
					if err := c.AllReduce(vecs[r]); err != nil {
						t.Error(err)
					}
					if err := c.RingAllReduce(vecs[r]); err != nil {
						t.Error(err)
					}
					done[r] <- struct{}{}
				}
			}
		}(r)
	}
	run := func() {
		for r := 0; r < p; r++ {
			start[r] <- struct{}{}
		}
		for r := 0; r < p; r++ {
			<-done[r]
		}
	}
	run() // warm communicator scratch and the transport's buffer pool
	if avg := testing.AllocsPerRun(50, run); avg > 1 {
		t.Errorf("steady-state allreduce allocates %.1f objects per round, want ~0", avg)
	}
}

// Alloc-regression guard for the epoch hot path: the PR-3 implementation
// allocated ~900 objects per epoch at 1 worker and ~2700 at 4 (gather/
// scatter buffers, per-call ring scratch, transport pool boxing, unreused
// activations). With the arena, bucketed zero-alloc collectives and buffer
// reuse those structural sources are gone; what remains is one closure
// environment per parallel-kernel call (a static escape-analysis cost of
// the tensor.ParallelFor call sites, ~50 per replica-batch) plus a handful
// of loss-view rebinds. The pinned budgets keep any structural alloc creep
// — the 898→2701 regression this PR removed — from coming back.
func TestParallelEpochSteadyStateAllocs(t *testing.T) {
	budgets := map[int]float64{1: 300, 4: 850} // measured 188 / 591 + headroom
	for _, p := range []int{1, 4} {
		net := unet.DefaultConfig(2)
		net.BaseFilters = 4
		net.Depth = 2
		net.BatchNorm = false
		pt, err := NewParallelTrainer(ParallelConfig{
			Workers: p, Dim: 2, Res: 8, Samples: 8, GlobalBatch: 4,
			LR: 1e-3, Seed: 3, Net: &net,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ { // settle buffer shapes and transport pool
			if _, err := pt.TrainEpoch(8); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(10, func() {
			if _, err := pt.TrainEpoch(8); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("workers=%d: %.0f allocs per epoch", p, avg)
		if avg > budgets[p] {
			t.Errorf("workers=%d: steady-state epoch allocates %.0f objects, budget %.0f", p, avg, budgets[p])
		}
		pt.Close()
	}

	// The single-process trainer is the same step, so it fits the
	// workers = 1 budget. AllocsPerRun measures at GOMAXPROCS 1, which the
	// parallel trainer's per-epoch kernel throttle follows; pin the kernels
	// the same way here so goroutine fan-out is not counted.
	defer tensor.SetParallelism(tensor.SetParallelism(1))
	cfg := core.DefaultConfig(2)
	cfg.FinestRes, cfg.Levels, cfg.Samples, cfg.BatchSize, cfg.Seed, cfg.Net = 8, 1, 8, 4, 3, smallNet(2)
	tr := core.NewTrainer(cfg)
	epoch := func() {
		if _, err := tr.TrainEpoch(8); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		epoch()
	}
	avg := testing.AllocsPerRun(10, epoch)
	t.Logf("core.Trainer: %.0f allocs per epoch", avg)
	if avg > budgets[1] {
		t.Errorf("core.Trainer: steady-state epoch allocates %.0f objects, budget %.0f", avg, budgets[1])
	}
}
