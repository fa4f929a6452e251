package dist

import "fmt"

// Transport is one endpoint of a p-way communicator. Rank r's endpoint can
// exchange float64 buffers with any other rank; implementations must allow
// every rank to issue at least one Send before any peer posts the matching
// Recv, so that the bulk-synchronous collectives in this package cannot
// deadlock. Messages between a fixed (sender, receiver) pair are delivered
// in order.
type Transport interface {
	// Rank returns the endpoint's rank in [0, Peers).
	Rank() int
	// Peers returns the communicator size p.
	Peers() int
	// Send delivers a copy of buf to peer to. The caller may reuse buf
	// immediately after Send returns.
	Send(to int, buf []float64) error
	// Recv blocks until the next message from peer from arrives and copies
	// it into buf, whose length must equal the message length.
	Recv(from int, buf []float64) error
}

// linkDepth is the per-link channel buffer. Sends may block once a link
// holds this many undelivered messages; that is backpressure, not
// deadlock, because every receiver in the collectives' bulk-synchronous
// schedules eventually drains its links. The buffer only needs to be >= 1
// so that all ranks of a synchronous step can send before any peer posts
// the matching Recv.
const linkDepth = 4

// channelTransport is the in-process Transport: a full mesh of buffered
// channels shared by the p endpoints returned from NewChannelRing. It is
// the goroutine analogue of an MPI communicator; Send copies through a
// shared recycling channel of message buffers so transfers cost one memcpy
// per hop, like a real interconnect, with zero per-message allocation in
// steady state. (A sync.Pool is the obvious choice but costs one heap
// allocation per Put — the *[]float64 box — which at 4(p−1) messages per
// collective was a measurable share of the epoch's allocations; a buffered
// channel recycles slices without boxing.)
type channelTransport struct {
	rank  int
	p     int
	links [][]chan []float64 // links[from][to], nil on the diagonal
	free  chan []float64     // recycled message buffers, shared by the mesh
}

// NewChannelRing builds a p-way in-process communicator and returns one
// Transport endpoint per rank. Despite the name (it is the transport under
// RingAllReduce) the mesh is fully connected, so the same endpoints also
// serve the all-to-all baseline.
func NewChannelRing(p int) []Transport {
	if p < 1 {
		panic(fmt.Sprintf("dist: communicator size must be >= 1, got %d", p))
	}
	links := make([][]chan []float64, p)
	for from := range links {
		links[from] = make([]chan []float64, p)
		for to := range links[from] {
			if to != from {
				links[from][to] = make(chan []float64, linkDepth)
			}
		}
	}
	// Capacity for every link's in-flight depth plus slack, so Put never
	// blocks and drops are rare.
	free := make(chan []float64, p*p*(linkDepth+1))
	out := make([]Transport, p)
	for r := range out {
		out[r] = &channelTransport{rank: r, p: p, links: links, free: free}
	}
	return out
}

// Rank implements Transport.
func (t *channelTransport) Rank() int { return t.rank }

// Peers implements Transport.
func (t *channelTransport) Peers() int { return t.p }

func (t *channelTransport) checkPeer(peer int) error {
	if peer < 0 || peer >= t.p {
		return fmt.Errorf("dist: peer %d out of range [0,%d)", peer, t.p)
	}
	if peer == t.rank {
		return fmt.Errorf("dist: rank %d cannot message itself", t.rank)
	}
	return nil
}

// getBuf fetches a recycled buffer of capacity >= n, allocating only when
// the free list is empty or its head is too small. An undersized buffer is
// dropped, not put back: keeping it would make every future large Send
// that pops it allocate again, whereas dropping lets the pool converge to
// uniformly message-sized buffers (small messages happily reuse large
// ones, so after warm-up steady state allocates nothing).
func (t *channelTransport) getBuf(n int) []float64 {
	select {
	case b := <-t.free:
		if cap(b) >= n {
			return b[:n]
		}
	default:
	}
	return make([]float64, n)
}

// Send implements Transport.
func (t *channelTransport) Send(to int, buf []float64) error {
	if err := t.checkPeer(to); err != nil {
		return err
	}
	msg := t.getBuf(len(buf))
	copy(msg, buf)
	t.links[t.rank][to] <- msg
	return nil
}

// Recv implements Transport.
func (t *channelTransport) Recv(from int, buf []float64) error {
	if err := t.checkPeer(from); err != nil {
		return err
	}
	msg := <-t.links[from][t.rank]
	if len(msg) != len(buf) {
		err := fmt.Errorf("dist: rank %d expected %d values from rank %d, got %d",
			t.rank, len(buf), from, len(msg))
		t.putBuf(msg) // recycle even on the error path, or the buffer leaks
		return err
	}
	copy(buf, msg)
	t.putBuf(msg)
	return nil
}

// putBuf returns a message buffer to the shared free list, dropping it when
// the list is full.
func (t *channelTransport) putBuf(msg []float64) {
	select {
	case t.free <- msg:
	default: // free list full: let the buffer go
	}
}
