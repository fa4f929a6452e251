package serve

import (
	"context"
	"errors"
	"fmt"
	rand "math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"time"

	"mgdiffnet/internal/field"
)

// waitForBaseline polls until the live goroutine count drops back to at
// most base+slack, failing the test if it does not within the budget —
// the no-goroutine-leak pin for the overload and chaos tests.
func waitForBaseline(t *testing.T, base int, what string) {
	t.Helper()
	const slack = 3
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // finalize dead goroutine stacks promptly
		n := runtime.NumGoroutine()
		if n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%s: %d goroutines, baseline %d (+%d slack):\n%s", what, n, base, slack, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCancelStormSurvivorBitExact is the satellite contract for waiter
// detachment: N waiters share one single-flight entry, N−1 cancel while
// the forward is in flight, and the survivor still receives the bit-exact
// result with the cache populated exactly once. Run under -race in CI.
func TestCancelStormSurvivorBitExact(t *testing.T) {
	net := testNet(2)
	e := mustEngine(t, Config{
		Net: net, Replicas: 1, MaxBatch: 2, BatchWindow: time.Millisecond,
		// The slow replica holds the flight open long enough for the
		// cancel storm to land mid-forward deterministically.
		Faults: &Faults{Seed: 1, SlowReplicaProb: 1, ReplicaDelay: 100 * time.Millisecond},
	})
	ref := net.Clone()
	w := field.Omega{0.7, -0.4, 1.1, 0.2}
	want := reference(ref, w, 16)

	const waiters = 8
	type out struct {
		r   Result
		err error
	}
	results := make([]out, waiters)
	ctxs := make([]context.CancelFunc, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		ctxs[i] = cancel
		wg.Add(1)
		go func(i int, ctx context.Context) {
			defer wg.Done()
			results[i].r, results[i].err = e.Solve(ctx, w, 16)
		}(i, ctx)
	}
	// Let every waiter attach (the forward takes >=100ms), then cancel
	// all but waiter 0 mid-flight.
	time.Sleep(30 * time.Millisecond)
	for i := 1; i < waiters; i++ {
		ctxs[i]()
	}
	wg.Wait()
	defer ctxs[0]()

	if results[0].err != nil {
		t.Fatalf("survivor failed: %v", results[0].err)
	}
	for j := range want {
		if results[0].r.U[j] != want[j] {
			t.Fatalf("survivor diverges from monolithic reference at %d", j)
		}
	}
	canceled := 0
	for i := 1; i < waiters; i++ {
		if results[i].err == nil {
			continue // result raced in before the cancel landed; fine
		}
		if !errors.Is(results[i].err, context.Canceled) {
			t.Fatalf("waiter %d: unexpected error %v", i, results[i].err)
		}
		canceled++
	}
	if canceled == 0 {
		t.Fatal("no waiter observed its cancellation")
	}
	st := e.Stats()
	if st.Forwards != 1 {
		t.Fatalf("forwards %d, want exactly 1 (cache populated exactly once)", st.Forwards)
	}
	if st.Canceled != uint64(canceled) {
		t.Fatalf("canceled counter %d, want %d", st.Canceled, canceled)
	}
	// The one forward populated the cache; a repeat query must hit it.
	hit, err := e.Solve(context.Background(), w, 16)
	if err != nil || !hit.Cached {
		t.Fatalf("post-storm query: cached=%v err=%v", hit.Cached, err)
	}
	for j := range want {
		if hit.U[j] != want[j] {
			t.Fatalf("cached value diverges at %d", j)
		}
	}
}

// TestAllWaitersGoneFlightDropped pins the other half of the detachment
// contract: a flight whose every waiter cancels while it waits for a
// replica is dropped without running its forward.
func TestAllWaitersGoneFlightDropped(t *testing.T) {
	net := testNet(2)
	e := mustEngine(t, Config{Net: net, Replicas: 1, MaxBatch: 8, BatchWindow: 150 * time.Millisecond})
	w := field.Omega{0.2, 0.9, -1.3, 0.5}

	// Holding the only replica parks the flight in the dispatcher's launch
	// while the waiter cancels, with no forward of another flight counted.
	rep := <-e.replicas
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.Solve(ctx, w, 16)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the flight enqueue
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter returned %v", err)
	}
	// Free the replica: the dispatcher must drop the abandoned flight
	// instead of forwarding it.
	e.replicas <- rep
	time.Sleep(300 * time.Millisecond)
	st := e.Stats()
	if st.Forwards != 0 {
		t.Fatalf("abandoned flight still ran %d forward(s)", st.Forwards)
	}
	if st.DroppedFlights != 1 {
		t.Fatalf("dropped flights %d, want 1", st.DroppedFlights)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after abandonment, want 0", st.QueueDepth)
	}
	// The key must be recomputable: a fresh request gets a fresh flight.
	got, err := e.Solve(context.Background(), w, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cached {
		t.Fatal("dropped flight left a cache entry")
	}
	want := reference(net.Clone(), w, 16)
	for j := range want {
		if got.U[j] != want[j] {
			t.Fatalf("recomputed value diverges at %d", j)
		}
	}
}

// TestFlightAbandonedWhileWaitingForReplicaDropped: a flight whose only
// waiter cancels while it queues behind a slow batch on the engine's one
// replica is dropped when the replica frees up, so the only forward that
// runs is the blocker's.
func TestFlightAbandonedWhileWaitingForReplicaDropped(t *testing.T) {
	net := testNet(2)
	e := mustEngine(t, Config{Net: net, Replicas: 1, MaxBatch: 8, CacheSize: -1,
		Faults: &Faults{Seed: 1, SlowReplicaProb: 1, ReplicaDelay: 200 * time.Millisecond}})
	blocker := make(chan error, 1)
	go func() {
		_, err := e.Solve(context.Background(), field.Omega{0.4, -0.7, 1.1, 0.2}, 16)
		blocker <- err
	}()
	for len(e.replicas) > 0 { // wait for the blocker to take the replica
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.Solve(ctx, field.Omega{0.2, 0.9, -1.3, 0.5}, 16)
		errc <- err
	}()
	// Long past a default window: the flight waits for the replica.
	time.Sleep(30 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter returned %v", err)
	}
	if err := <-blocker; err != nil {
		t.Fatal(err)
	}
	e.Close() // waits for every batch the dispatcher launched
	st := e.Stats()
	if st.Forwards != 1 {
		t.Fatalf("%d forwards, want only the blocker's", st.Forwards)
	}
	if st.DroppedFlights != 1 {
		t.Fatalf("dropped flights %d, want 1", st.DroppedFlights)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d, want 0", st.QueueDepth)
	}
}

// TestOverloadShedsAndRecovers floods a deliberately tiny engine at well
// past capacity: excess work must shed with ErrOverloaded (never another
// error), admitted work must stay bit-exact, and after the flood the
// queue depth and goroutine count must return to baseline.
func TestOverloadShedsAndRecovers(t *testing.T) {
	base := runtime.NumGoroutine()
	net := testNet(2)
	e, err := NewEngine(Config{
		Net: net, Replicas: 1, MaxBatch: 2, BatchWindow: time.Millisecond,
		MaxQueue: 3, CacheSize: -1,
		Faults: &Faults{Seed: 2, SlowReplicaProb: 1, ReplicaDelay: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := net.Clone()
	omegas := field.SampleOmegas(40)
	want := map[Key][]float64{}
	for _, w := range omegas {
		want[Key{Omega: w, Res: 8}] = reference(ref, w, 8)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	served, shed := 0, 0
	for _, w := range omegas {
		wg.Add(1)
		go func(w field.Omega) {
			defer wg.Done()
			r, err := e.Solve(context.Background(), w, 8)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				served++
				exp := want[Key{Omega: w, Res: 8}]
				for j := range exp {
					if r.U[j] != exp[j] {
						t.Errorf("admitted result diverges at %d", j)
						return
					}
				}
			case errors.Is(err, ErrOverloaded):
				shed++
			default:
				t.Errorf("unexpected error class: %v", err)
			}
		}(w)
	}
	wg.Wait()
	if shed == 0 {
		t.Fatalf("40 concurrent requests against MaxQueue=3 shed nothing (served %d)", served)
	}
	if served == 0 {
		t.Fatal("everything shed; admission control refused all work")
	}
	st := e.Stats()
	if st.Shed != uint64(shed) {
		t.Fatalf("shed counter %d, want %d", st.Shed, shed)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after flood, want 0", st.QueueDepth)
	}
	e.Close()
	waitForBaseline(t, base, "after flood")
}

// TestDeadlineAwareAdmission pins fail-fast shedding: once the latency
// EWMA knows a resolution is slow, a request whose deadline cannot be met
// is refused at admission instead of burning a replica forward on an
// answer the client will never read.
func TestDeadlineAwareAdmission(t *testing.T) {
	net := testNet(2)
	e := mustEngine(t, Config{
		Net: net, Replicas: 1, MaxBatch: 1, BatchWindow: -1, CacheSize: -1,
		Faults: &Faults{Seed: 3, SlowReplicaProb: 1, ReplicaDelay: 50 * time.Millisecond},
	})
	// Prime the EWMA: two completed forwards at res 16, each >=50ms.
	for i, w := range field.SampleOmegas(2) {
		if _, err := e.Solve(context.Background(), w, 16); err != nil {
			t.Fatalf("prime %d: %v", i, err)
		}
	}
	// A 10ms budget cannot meet a ~50ms estimated wait: shed, fast.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.Solve(ctx, field.Omega{1.9, -0.2, 0.4, 1.0}, 16)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("got %v, want ErrOverloaded", err)
	}
	var ov *OverloadError
	if !errors.As(err, &ov) || ov.RetryAfter < time.Second {
		t.Fatalf("shed error carries no usable Retry-After: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 25*time.Millisecond {
		t.Fatalf("deadline-unmeetable request took %v; shedding should be immediate", elapsed)
	}
	st := e.Stats()
	if st.DeadlineSheds != 1 {
		t.Fatalf("deadline sheds %d, want 1", st.DeadlineSheds)
	}
	// A request with a generous deadline is admitted as usual.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if _, err := e.Solve(ctx2, field.Omega{1.9, -0.2, 0.4, 1.0}, 16); err != nil {
		t.Fatalf("generous deadline refused: %v", err)
	}
}

// TestDegradedModeCoarseAnswers pins graceful degradation: cache hits
// still answer, cold misses shed, and opt-in requests get a
// coarser-resolution answer flagged Degraded — bit-exact at the coarse
// resolution.
func TestDegradedModeCoarseAnswers(t *testing.T) {
	net := testNet(2)
	e := mustEngine(t, Config{
		Net: net, Replicas: 1, MaxBatch: 2, BatchWindow: time.Millisecond,
		Faults: &Faults{ForceDegraded: true},
	})
	ref := net.Clone()
	w := field.Omega{-0.8, 1.4, 0.3, -0.6}

	// Cold miss without the opt-in: shed.
	if _, err := e.Solve(context.Background(), w, 16); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("degraded cold miss returned %v, want ErrOverloaded", err)
	}
	// Opt-in: served at the next coarser valid resolution, flagged.
	r, err := e.SolveQuery(context.Background(), Query{Omega: w, Res: 16, AllowDegraded: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Degraded || r.Res != 8 {
		t.Fatalf("degraded answer: Degraded=%v Res=%d, want true/8", r.Degraded, r.Res)
	}
	want := reference(ref, w, 8)
	for j := range want {
		if r.U[j] != want[j] {
			t.Fatalf("coarse answer diverges from monolithic res-8 reference at %d", j)
		}
	}
	// The coarse result is cached under its own key: a direct res-8
	// request — cache hit — is served even in degraded mode.
	hit, err := e.Solve(context.Background(), w, 8)
	if err != nil {
		t.Fatalf("cache hit refused in degraded mode: %v", err)
	}
	if !hit.Cached {
		t.Fatal("direct res-8 request missed the cache")
	}
	// No coarser resolution exists below the network's minimum: shed
	// even with the opt-in.
	if _, err := e.SolveQuery(context.Background(), Query{Omega: w, Res: 4, AllowDegraded: true}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("res-4 degraded request returned %v, want ErrOverloaded (no coarser level)", err)
	}
	st := e.Stats()
	if !st.DegradedMode {
		t.Fatal("DegradedMode gauge not set")
	}
	if st.DegradedServed == 0 {
		t.Fatal("DegradedServed counter not bumped")
	}
	if st.Shed < 2 {
		t.Fatalf("shed counter %d, want >= 2", st.Shed)
	}
}

// TestChaosSoak is the chaos harness acceptance test: injected slow
// replicas, stuck slab workers and a client-disconnect storm, all at
// once, against a mixed workload. Invariants pinned: every admitted
// (successful) response is bit-identical to the monolithic reference,
// every error is a typed overload/context error, and the
// engine returns to baseline (queue empty, no goroutine leak) afterwards.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	base := runtime.NumGoroutine()
	net := testNet(2)
	e, err := NewEngine(Config{
		Net: net, Replicas: 2, MaxBatch: 4, BatchWindow: 500 * time.Microsecond,
		MaxQueue: 8, SlabVoxels: 32 * 32, SlabWorkers: 2,
		Faults: &Faults{
			Seed:            5,
			SlowReplicaProb: 0.3, ReplicaDelay: 3 * time.Millisecond,
			StuckSlabProb: 0.5, StuckDelay: 3 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := net.Clone()
	resolutions := []int{8, 16, 32}
	omegas := field.SampleOmegas(10)
	want := map[Key][]float64{}
	for _, res := range resolutions {
		for _, w := range omegas {
			want[Key{Omega: w, Res: res}] = reference(ref, w, res)
		}
	}

	const goroutines = 12
	const perG = 15
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 99))
			for i := 0; i < perG; i++ {
				res := resolutions[(g+i)%len(resolutions)]
				w := omegas[(g*3+i)%len(omegas)]
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				switch rng.IntN(3) {
				case 0: // disconnect storm: cancel shortly after issuing
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+rng.IntN(4))*time.Millisecond)
				case 1: // tight-but-feasible deadline
					ctx, cancel = context.WithTimeout(ctx, 2*time.Second)
				}
				r, err := e.Solve(ctx, w, res)
				cancel()
				if err != nil {
					if !errors.Is(err, ErrOverloaded) && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
						errCh <- fmt.Errorf("goroutine %d: untyped error under chaos: %w", g, err)
						return
					}
					continue
				}
				exp := want[Key{Omega: w, Res: res}]
				for j := range exp {
					if r.U[j] != exp[j] {
						errCh <- fmt.Errorf("goroutine %d: res %d omega %v diverges at %d (cached=%v shared=%v slab=%v)",
							g, res, w, j, r.Cached, r.Shared, r.Slab)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Bounded queue depth throughout implies it is bounded now; the
	// stronger post-condition is full drain.
	deadline := time.Now().Add(3 * time.Second)
	for {
		st := e.Stats()
		if st.QueueDepth == 0 {
			if st.MaxQueue != 8 {
				t.Fatalf("max queue %d, want 8", st.MaxQueue)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d never drained", st.QueueDepth)
		}
		time.Sleep(10 * time.Millisecond)
	}
	e.Close()
	waitForBaseline(t, base, "after chaos soak")
}

// TestSolveRejectsExpiredContext pins the cheap fast path: an already
// canceled context never touches cache, dedup or admission.
func TestSolveRejectsExpiredContext(t *testing.T) {
	net := testNet(2)
	e := mustEngine(t, Config{Net: net})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Solve(ctx, field.Omega{0.1, 0.2, 0.3, 0.4}, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if st := e.Stats(); st.Canceled != 1 || st.Forwards != 0 {
		t.Fatalf("canceled=%d forwards=%d, want 1/0", st.Canceled, st.Forwards)
	}
}
