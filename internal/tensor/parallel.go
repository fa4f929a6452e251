package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// override is the kernel worker count SetParallelism set, or 0 to follow
// GOMAXPROCS. It is atomic because distributed trainers change it around
// concurrent epochs (each in-process replica gets GOMAXPROCS/p kernel
// workers) while worker goroutines are reading it.
var override atomic.Int64

// SetParallelism sets how many goroutines Parallel and ParallelReduce fan
// out to; n <= 0 makes the count follow runtime.GOMAXPROCS again, the
// default. It returns the previous setting, 0 for following, so
// defer SetParallelism(SetParallelism(k)) restores it exactly.
func SetParallelism(n int) int { return int(override.Swap(int64(max(n, 0)))) }

// Parallelism reports the worker count Parallel fans out to: the one
// SetParallelism set, else GOMAXPROCS at the time of the call.
func Parallelism() int {
	if n := override.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// minWork is the work, in scalar operations, below which Parallel runs on
// the calling goroutine, where starting goroutines costs more than it
// saves: 256 items of 128 multiply-adds.
const minWork = 256 * 128

// Parallel runs body over the items [0, n), each about cost scalar
// operations of work, as calls body(lo, hi) on disjoint chunks. With one
// worker, or under minWork of work in all, it is body(0, n) on the calling
// goroutine. Otherwise up to Parallelism() goroutines, the caller among
// them, claim chunks of about n/(4·workers) items from one shared counter
// until none is left, so a worker that finishes early takes more. The
// chunks follow the worker count, and which goroutine runs each varies
// from call to call: a body whose items write disjoint outputs gives the
// same bits however they fall. A sum over items is ParallelReduce's job.
func Parallel(n, cost int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := min(Parallelism(), n)
	if w <= 1 || n*cost < minWork {
		body(0, n)
		return
	}
	f := &fanout{n: n, chunk: max(1, n/(4*w)), body: body}
	f.wg.Add(w - 1)
	for i := 1; i < w; i++ {
		go f.work()
	}
	f.run()
	f.wg.Wait()
}

// fanout is one Parallel call: next is the first item no worker has
// claimed yet.
type fanout struct {
	n, chunk int
	next     atomic.Int64
	body     func(lo, hi int)
	wg       sync.WaitGroup
}

// run claims and runs chunks until every item is claimed.
func (f *fanout) run() {
	for {
		hi := int(f.next.Add(int64(f.chunk)))
		lo := hi - f.chunk
		if lo >= f.n {
			return
		}
		f.body(lo, min(hi, f.n))
	}
}

func (f *fanout) work() {
	defer f.wg.Done()
	f.run()
}

// parallelThreshold is the item count below which ParallelReduce runs
// serially.
const parallelThreshold = 256

// ParallelReduce computes a sum over [0, n) where body(lo, hi) returns the
// partial sum for its chunk. Partial sums are combined deterministically in
// chunk order so results do not depend on goroutine scheduling.
func ParallelReduce(n int, body func(lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	workers := min(Parallelism(), n)
	if workers <= 1 || n < parallelThreshold {
		return body(0, n)
	}
	chunk := (n + workers - 1) / workers
	parts := make([]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			parts[w] = body(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	s := 0.0
	for _, p := range parts {
		s += p
	}
	return s
}
