// The race detector allocates on goroutine start and synchronization, so
// allocation counts mean nothing under it.

//go:build !race

package tensor

import "testing"

// One fan-out to two workers allocates two objects: the call's shared
// state and the closure that starts the second goroutine (the caller is
// the first).
func TestParallelAllocs(t *testing.T) {
	defer SetParallelism(SetParallelism(2))
	out := make([]float64, 4*minWork)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = float64(i)
		}
	}
	if got := testing.AllocsPerRun(200, func() { Parallel(len(out), 1, body) }); got > 2 {
		t.Errorf("Parallel at 2 workers allocates %v objects, want at most 2", got)
	}
}
