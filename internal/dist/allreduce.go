package dist

import "fmt"

// chunkOffsets partitions [0, n) into p nearly equal contiguous spans and
// returns the p+1 boundary offsets. The first n%p chunks are one element
// longer, so chunk 0 is always a largest chunk. When n < p the trailing
// chunks are empty (zero-length spans); n == 0 makes every chunk empty.
func chunkOffsets(n, p int) []int {
	return chunkOffsetsInto(make([]int, p+1), n, p)
}

// chunkOffsetsInto is chunkOffsets writing into a caller-provided buffer
// of length p+1, so persistent communicators can partition without
// allocating.
//
//mglint:hotpath
func chunkOffsetsInto(off []int, n, p int) []int {
	off[0] = 0
	base, rem := n/p, n%p
	for c := 0; c < p; c++ {
		off[c+1] = off[c] + base
		if c < rem {
			off[c+1]++
		}
	}
	return off
}

func checkCollective(rank, p int, tr Transport) error {
	if p < 1 {
		return fmt.Errorf("dist: communicator size must be >= 1, got %d", p)
	}
	if rank < 0 || rank >= p {
		return fmt.Errorf("dist: rank %d out of range [0,%d)", rank, p)
	}
	if p > 1 && tr == nil {
		return fmt.Errorf("dist: rank %d has no transport", rank)
	}
	return nil
}

// RingAllReduce sums x element-wise across the p ranks of the communicator
// and leaves the identical result in every rank's x. It is the
// bandwidth-optimal two-phase ring of Patarasuk & Yuan (the algorithm MPI
// and NCCL use for large vectors, and the one the paper's horovod-style
// gradient averaging rests on): a reduce-scatter in which each rank
// forwards one chunk per step to its right neighbor while accumulating the
// chunk arriving from its left, followed by an all-gather circulating the
// finished chunks. Each rank moves 2(p-1)/p·n values in total, independent
// of p, versus the (p-1)·n of NaiveAllReduce.
//
// Every chunk's sum is accumulated serially along the ring in a fixed
// order and then broadcast, so all ranks end with bit-identical values —
// the property ParallelTrainer relies on to keep replicas in lockstep.
// All ranks must call RingAllReduce with equal-length x.
//
// Each chunk's accumulation order starts at a different rank (a property
// of the ring schedule), so results depend on where the chunk boundaries
// fall; the trainer's bucketed overlapped path needs chunking-invariant
// sums and therefore uses Communicator.AllReduce instead. It allocates its
// scratch per call: the trainer never runs it, only the allreduce ablation
// and the tests do.
func RingAllReduce(rank, p int, x []float64, tr Transport) error {
	if err := checkCollective(rank, p, tr); err != nil {
		return err
	}
	if p == 1 {
		return nil
	}
	off := chunkOffsets(len(x), p)
	scratch := make([]float64, off[1]-off[0]) // chunk 0 is a largest chunk
	right := (rank + 1) % p
	left := (rank - 1 + p) % p

	// Phase 1: reduce-scatter. After p-1 steps rank r owns the fully
	// reduced chunk (r+1) mod p.
	for step := 0; step < p-1; step++ {
		sc := ((rank-step)%p + p) % p
		rc := ((rank-step-1)%p + p) % p
		if err := tr.Send(right, x[off[sc]:off[sc+1]]); err != nil {
			return err
		}
		rbuf := scratch[:off[rc+1]-off[rc]]
		if err := tr.Recv(left, rbuf); err != nil {
			return err
		}
		dst := x[off[rc]:off[rc+1]]
		for i, v := range rbuf {
			dst[i] += v
		}
	}

	// Phase 2: all-gather. Circulate the finished chunks around the ring.
	for step := 0; step < p-1; step++ {
		sc := ((rank+1-step)%p + p) % p
		rc := ((rank-step)%p + p) % p
		if err := tr.Send(right, x[off[sc]:off[sc+1]]); err != nil {
			return err
		}
		if err := tr.Recv(left, x[off[rc]:off[rc+1]]); err != nil {
			return err
		}
	}
	return nil
}

// NaiveAllReduce is the all-to-all baseline of the DESIGN.md communication
// ablation: every rank sends its full vector to every other rank and sums
// the p copies locally. Each rank moves (p-1)·n values — asymptotically p/2
// times the ring's traffic — which is why the paper's gradient averaging
// uses the ring instead. Contributions are accumulated in rank order, so
// like RingAllReduce all ranks end with bit-identical results.
func NaiveAllReduce(rank, p int, x []float64, tr Transport) error {
	if err := checkCollective(rank, p, tr); err != nil {
		return err
	}
	if p == 1 {
		return nil
	}
	for q := 0; q < p; q++ {
		if q == rank {
			continue
		}
		if err := tr.Send(q, x); err != nil {
			return err
		}
	}
	sum := make([]float64, len(x))
	recv := make([]float64, len(x))
	for q := 0; q < p; q++ {
		contrib := recv
		if q == rank {
			contrib = x
		} else if err := tr.Recv(q, recv); err != nil {
			return err
		}
		for i, v := range contrib {
			sum[i] += v
		}
	}
	copy(x, sum)
	return nil
}
