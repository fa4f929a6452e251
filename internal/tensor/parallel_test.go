package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Distributed trainers call SetParallelism around concurrent epochs while
// replica goroutines are inside Parallel; run both under -race to guard
// the atomic access to the worker-count setting.
func TestSetParallelismConcurrentWithParallel(t *testing.T) {
	defer SetParallelism(0)
	const n = 4 * parallelThreshold
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
				SetParallelism(1 + i%4)
			}
		}
	}()
	out := make([]float64, n)
	for iter := 0; iter < 50; iter++ {
		Parallel(n, minWork, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = float64(i)
			}
		})
		if s := ParallelReduce(n, func(lo, hi int) float64 {
			acc := 0.0
			for i := lo; i < hi; i++ {
				acc += out[i]
			}
			return acc
		}); s != float64(n)*float64(n-1)/2 {
			t.Fatalf("iter %d: bad reduction %g", iter, s)
		}
	}
	close(stop)
	wg.Wait()
}

// SetParallelism returns the override it replaces, 0 for following
// GOMAXPROCS, so handing it back restores the setting exactly.
func TestSetParallelismRestoresPrevious(t *testing.T) {
	defer SetParallelism(SetParallelism(0))
	if prev := SetParallelism(3); prev != 0 {
		t.Fatalf("SetParallelism(3) returned %d, want 0 (following GOMAXPROCS)", prev)
	}
	if Parallelism() != 3 {
		t.Fatalf("Parallelism() = %d, want 3", Parallelism())
	}
	func() {
		defer SetParallelism(SetParallelism(5))
		if Parallelism() != 5 {
			t.Fatalf("Parallelism() = %d, want 5", Parallelism())
		}
	}()
	if Parallelism() != 3 {
		t.Fatalf("restore failed: Parallelism() = %d, want 3", Parallelism())
	}
	if prev := SetParallelism(-1); prev != 3 {
		t.Fatalf("SetParallelism(-1) returned %d, want 3", prev)
	}
	if got, want := Parallelism(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("after SetParallelism(-1), Parallelism() = %d, want GOMAXPROCS %d", got, want)
	}
}

// With no override the worker count is GOMAXPROCS at the time of the
// call, so go test -cpu 1,4 runs the kernels at 1 and at 4 workers.
func TestParallelismFollowsGOMAXPROCS(t *testing.T) {
	defer SetParallelism(SetParallelism(0))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	if got := Parallelism(); got != 3 {
		t.Fatalf("GOMAXPROCS 3: Parallelism() = %d", got)
	}
	runtime.GOMAXPROCS(1)
	if got := Parallelism(); got != 1 {
		t.Fatalf("GOMAXPROCS 1: Parallelism() = %d", got)
	}
	SetParallelism(4)
	if got := Parallelism(); got != 4 {
		t.Fatalf("override 4 at GOMAXPROCS 1: Parallelism() = %d", got)
	}
}

// Every item is run exactly once, in chunks inside [0, n), whether the
// loop runs serially (cost 0) or fans out (every item minWork).
func TestParallelVisitsEachIndexOnce(t *testing.T) {
	for procs := 1; procs <= 4; procs++ {
		for _, n := range []int{0, 1, 2, 3, 7, 255, 256, 257, 10007} {
			for _, cost := range []int{0, minWork} {
				func() {
					defer SetParallelism(SetParallelism(procs))
					seen := make([]atomic.Int32, n)
					var bad atomic.Int32
					Parallel(n, cost, func(lo, hi int) {
						if lo < 0 || lo >= hi || hi > n {
							bad.Add(1)
							return
						}
						for i := lo; i < hi; i++ {
							seen[i].Add(1)
						}
					})
					if bad.Load() != 0 {
						t.Fatalf("procs=%d n=%d cost=%d: %d chunks outside [0, n)", procs, n, cost, bad.Load())
					}
					for i := range seen {
						if c := seen[i].Load(); c != 1 {
							t.Fatalf("procs=%d n=%d cost=%d: index %d visited %d times", procs, n, cost, i, c)
						}
					}
				}()
			}
		}
	}
}

// Two heavy items are worth two workers even though there are only two:
// the cutoff weighs work, not the item count. Each item here waits for the
// other, so the call returns only if they run at the same time.
func TestParallelRunsTwoHeavyItemsConcurrently(t *testing.T) {
	defer SetParallelism(SetParallelism(2))
	started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		Parallel(2, minWork, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				close(started[i])
				<-started[1-i]
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the two items of Parallel(2, minWork, …) did not run concurrently")
	}
}
