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

// mailbox is the receive side both transports share: an in-order queue
// per peer, a free list of message buffers and length-checked delivery.
// The free list is a buffered channel, not a sync.Pool, whose Put boxes
// each slice: one heap allocation per message, at 4(p−1) messages per
// collective. Steady state allocates nothing.
type mailbox struct {
	rank  int
	p     int
	inbox []chan []float64 // inbox[from], nil at our own rank
	free  chan []float64   // recycled message buffers
}

func newMailbox(rank, p, depth int, free chan []float64) mailbox {
	m := mailbox{rank: rank, p: p, inbox: make([]chan []float64, p), free: free}
	for q := range m.inbox {
		if q != rank {
			m.inbox[q] = make(chan []float64, depth)
		}
	}
	return m
}

// Rank implements Transport.
func (m *mailbox) Rank() int { return m.rank }

// Peers implements Transport.
func (m *mailbox) Peers() int { return m.p }

func (m *mailbox) checkPeer(peer int) error {
	if peer < 0 || peer >= m.p {
		return fmt.Errorf("dist: peer %d out of range [0,%d)", peer, m.p)
	}
	if peer == m.rank {
		return fmt.Errorf("dist: rank %d cannot message itself", m.rank)
	}
	return nil
}

// getBuf fetches a recycled buffer of capacity >= n, allocating only when
// the free list is empty or its head is too small. An undersized buffer is
// dropped, not put back: keeping it would make every future large Send
// that pops it allocate again, whereas dropping lets the pool converge to
// uniformly message-sized buffers (small messages happily reuse large
// ones, so after warm-up steady state allocates nothing).
func (m *mailbox) getBuf(n int) []float64 {
	select {
	case b := <-m.free:
		if cap(b) >= n {
			return b[:n]
		}
	default:
	}
	return make([]float64, n)
}

// putBuf returns a message buffer to the free list, dropping it when the
// list is full.
func (m *mailbox) putBuf(msg []float64) {
	select {
	case m.free <- msg:
	default: // free list full: let the buffer go
	}
}

// deliver copies a message popped from peer from's queue into buf, whose
// length must match, and recycles the message on either path.
func (m *mailbox) deliver(from int, msg, buf []float64) error {
	defer m.putBuf(msg)
	if len(msg) != len(buf) {
		return fmt.Errorf("dist: rank %d expected %d values from rank %d, got %d",
			m.rank, len(buf), from, len(msg))
	}
	copy(buf, msg)
	return nil
}

// channelTransport is the in-process Transport, the goroutine analogue of
// an MPI communicator: Send puts a copy straight into the receiver's
// mailbox, one memcpy per hop, and the p endpoints share one free list.
type channelTransport struct {
	mailbox
	mesh []*channelTransport // every endpoint, indexed by rank
}

// NewChannelRing builds a p-way in-process communicator and returns one
// Transport endpoint per rank. Despite the name (it is the transport under
// RingAllReduce) the mesh is fully connected, so the same endpoints also
// serve the all-to-all baseline.
func NewChannelRing(p int) []Transport {
	if p < 1 {
		panic(fmt.Sprintf("dist: communicator size must be >= 1, got %d", p))
	}
	// Capacity for every link's in-flight depth plus slack, so Put never
	// blocks and drops are rare.
	free := make(chan []float64, p*p*(linkDepth+1))
	mesh := make([]*channelTransport, p)
	out := make([]Transport, p)
	for r := range mesh {
		mesh[r] = &channelTransport{mailbox: newMailbox(r, p, linkDepth, free), mesh: mesh}
		out[r] = mesh[r]
	}
	return out
}

// Send implements Transport.
func (t *channelTransport) Send(to int, buf []float64) error {
	if err := t.checkPeer(to); err != nil {
		return err
	}
	msg := t.getBuf(len(buf))
	copy(msg, buf)
	t.mesh[to].inbox[t.rank] <- msg
	return nil
}

// Recv implements Transport.
func (t *channelTransport) Recv(from int, buf []float64) error {
	if err := t.checkPeer(from); err != nil {
		return err
	}
	return t.deliver(from, <-t.inbox[from], buf)
}
