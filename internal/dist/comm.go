package dist

import "fmt"

// Communicator wraps one rank's Transport endpoint with persistent
// collective state: receive/accumulation scratch and chunk-offset buffers
// that are reused across calls, so steady-state collectives allocate
// nothing (the per-call scratch of the free-function RingAllReduce was a
// measurable share of the PR-3 epoch profile). One Communicator belongs to
// one goroutine; it is not safe for concurrent collectives, matching the
// one-collective-at-a-time discipline of a bulk-synchronous rank.
//
// AllReduce / AllReduceFrom use a reduce-scatter + all-gather schedule
// with the same 2(p−1)/p·n per-rank traffic as the Patarasuk & Yuan ring,
// but with one crucial difference: every chunk's sum is accumulated in
// ascending rank order. The ring rotates each chunk's starting rank, so
// its per-element summation order depends on where the chunk boundaries
// fall — splitting a vector into buckets and ring-reducing them would
// change results at the bit level. Rank-order accumulation makes the
// result independent of any chunking or bucketing: reducing a slab whole
// or as fixed-boundary buckets (the comm/compute-overlapped path in
// ParallelTrainer) is bit-identical, and both equal the serial
// rank-0..p−1 sum. That chunking invariance is what lets the bucketed
// overlapped allreduce preserve the PR-3 bit-exactness guarantees.
type Communicator struct {
	tr   Transport
	rank int
	p    int

	ownBak  []float64 // this rank's own-chunk contribution during reduce
	recvBuf []float64 // incoming chunk scratch
	offBuf  []int     // chunk offsets, p+1 entries
}

// NewCommunicator builds a persistent communicator over a transport
// endpoint (one of NewChannelRing's).
func NewCommunicator(tr Transport) *Communicator {
	if tr == nil {
		panic("dist: NewCommunicator needs a transport endpoint")
	}
	return &Communicator{tr: tr, rank: tr.Rank(), p: tr.Peers(), offBuf: make([]int, tr.Peers()+1)}
}

// Rank returns the endpoint's rank.
func (c *Communicator) Rank() int { return c.rank }

// Peers returns the communicator size p.
func (c *Communicator) Peers() int { return c.p }

func growF(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

// AllReduce sums x element-wise across all p ranks — every rank
// contributing — and leaves the identical rank-order sum in every rank's
// x. All ranks must call it with equal-length x.
func (c *Communicator) AllReduce(x []float64) error { return c.AllReduceFrom(x, nil) }

// AllReduceFrom is AllReduce restricted to a subset of contributing ranks:
// contrib[q] reports whether rank q's x holds a contribution. The slice
// must be identical on every rank (each rank can compute every peer's
// shard occupancy deterministically, which is how ParallelTrainer uses
// it). A nil contrib means all ranks contribute.
//
// Non-contributing ranks still participate in the collective but their
// buffers are never read: the reduction skips them instead of adding
// zeros, so an empty-shard rank does not have to zero-fill its gradient
// slab every batch — its x is simply overwritten with the result during
// the all-gather. If no rank contributes, every x is zero-filled.
//
//mglint:hotpath
func (c *Communicator) AllReduceFrom(x []float64, contrib []bool) error {
	if contrib != nil && len(contrib) != c.p {
		return fmt.Errorf("dist: contrib covers %d ranks, want %d", len(contrib), c.p)
	}
	if c.p == 1 {
		if contrib != nil && !contrib[0] {
			for i := range x {
				x[i] = 0
			}
		}
		return nil
	}
	does := func(q int) bool { return contrib == nil || contrib[q] }
	off := chunkOffsetsInto(c.offBuf, len(x), c.p)

	// Phase 1: reduce-scatter by direct exchange. Rank d owns chunk d;
	// every contributing rank sends d its slice of that chunk, and d
	// accumulates the contributions in ascending rank order (its own
	// contribution taking position c.rank). Empty chunks (len(x) < p) are
	// skipped symmetrically on both sides.
	if does(c.rank) {
		for d := 0; d < c.p; d++ {
			if d == c.rank {
				continue
			}
			if chunk := x[off[d]:off[d+1]]; len(chunk) > 0 {
				if err := c.tr.Send(d, chunk); err != nil {
					return err
				}
			}
		}
	}
	own := x[off[c.rank]:off[c.rank+1]]
	if len(own) > 0 {
		bak := growF(&c.ownBak, len(own))
		copy(bak, own)
		rb := growF(&c.recvBuf, len(own))
		first := true
		for q := 0; q < c.p; q++ {
			if !does(q) {
				continue
			}
			src := bak
			if q != c.rank {
				if err := c.tr.Recv(q, rb); err != nil {
					return err
				}
				src = rb
			}
			if first {
				copy(own, src)
				first = false
				continue
			}
			for i, v := range src {
				own[i] += v
			}
		}
		if first { // nobody contributed
			for i := range own {
				own[i] = 0
			}
		}
	}

	// Phase 2: all-gather. Each owner broadcasts its finished chunk; every
	// rank overwrites its x with the owners' results, so all ranks end
	// bit-identical regardless of what their x held going in.
	if len(own) > 0 {
		for d := 0; d < c.p; d++ {
			if d == c.rank {
				continue
			}
			if err := c.tr.Send(d, own); err != nil {
				return err
			}
		}
	}
	for q := 0; q < c.p; q++ {
		if q == c.rank {
			continue
		}
		if chunk := x[off[q]:off[q+1]]; len(chunk) > 0 {
			if err := c.tr.Recv(q, chunk); err != nil {
				return err
			}
		}
	}
	return nil
}
