package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	rand "math/rand/v2"
	"net"
	"strings"
	"sync"
	"time"
)

//mglint:ignore-file detrand transport plumbing is wall-clock by nature: time.Now feeds I/O deadlines and heartbeat accounting, and the dial-backoff jitter is deliberately nondeterministic; none of it touches payload bits, which TestTCPWorldMatchesInProcessBitExact pins against the in-process mesh

// Wire protocol. Every frame is a 5-byte header — one kind byte plus a
// big-endian uint32 payload byte count — followed by the payload:
//
//	hello     20 bytes: magic, world size, sender rank (uint32 each) and an
//	          FNV-64a hash of the full address list (uint64). Sent once by
//	          the dialing (lower-ranked) side of each connection; the
//	          acceptor rejects mismatched worlds, which keeps stale
//	          pre-reform dials from joining a shrunk world.
//	data      8·n bytes: n float64 values, little-endian IEEE-754 bits —
//	          the exact bits of the sender's buffer, so collectives over
//	          TCP are bit-identical to the in-process channel mesh.
//	heartbeat empty. Written whenever a link has been send-idle for a
//	          tenth of HeartbeatTimeout; any inbound frame proves liveness.
//	leave     empty. Clean shutdown announcement (training finished).
//	abort     4·k bytes: k uint32 ranks the sender has declared dead. Sent
//	          when a survivor tears down to reform; receivers adopt the
//	          dead set (gossip), so all survivors agree on the new world
//	          without a coordinator.
const (
	frameHello byte = iota + 1
	frameData
	frameHeartbeat
	frameLeave
	frameAbort
)

const (
	helloMagic      = 0x4D474436 // "MGD6"
	helloBytes      = 20
	frameHeaderLen  = 5
	maxFramePayload = 1 << 31
)

// The dial backoff of a rendezvous: the first retry waits ~dialRetryBase
// (with jitter in [b/2, b]), doubling up to dialRetryMax, until
// DialTimeout expires.
const (
	dialRetryBase = 50 * time.Millisecond
	dialRetryMax  = 2 * time.Second
)

// TCPOptions tunes a TCPTransport. The zero value of any field selects the
// default noted on it (DefaultTCPOptions spells them all out).
type TCPOptions struct {
	// DialTimeout is the total rendezvous budget: every connection of the
	// full mesh must be up within it. Default 30s.
	DialTimeout time.Duration
	// OpTimeout is the per-operation deadline of Send (time allowed to
	// enqueue against backpressure) and Recv (time allowed for the
	// matching message to arrive from a peer that is alive but not
	// sending). Negative disables the deadline; peer death still unblocks
	// every pending operation. Default 2m.
	OpTimeout time.Duration
	// HeartbeatTimeout is how long a link may be receive-silent before the
	// peer is declared dead. A writer emits a heartbeat frame whenever its
	// link has been send-idle for a tenth of it, so the detector fires
	// after 10 missed heartbeats. Default 5s.
	HeartbeatTimeout time.Duration
	// SendQueue is the number of frames buffered per peer before Send
	// exerts backpressure (blocks, then fails after OpTimeout). Default 16.
	SendQueue int
	// Logf, when non-nil, receives membership events (peer declared dead,
	// gossiped deaths, clean departures).
	Logf func(format string, args ...any)
}

// DefaultTCPOptions returns the defaults documented on TCPOptions.
func DefaultTCPOptions() TCPOptions {
	return TCPOptions{
		DialTimeout:      30 * time.Second,
		OpTimeout:        2 * time.Minute,
		HeartbeatTimeout: 5 * time.Second,
		SendQueue:        16,
	}
}

func (o TCPOptions) normalized() TCPOptions {
	d := DefaultTCPOptions()
	if o.DialTimeout == 0 {
		o.DialTimeout = d.DialTimeout
	}
	if o.OpTimeout == 0 {
		o.OpTimeout = d.OpTimeout
	}
	if o.HeartbeatTimeout == 0 {
		o.HeartbeatTimeout = d.HeartbeatTimeout
	}
	if o.SendQueue == 0 {
		o.SendQueue = d.SendQueue
	}
	return o
}

// TCPTransport is the wire implementation of Transport: one endpoint of a
// p-rank world whose ranks are separate processes (or machines) connected
// by a full mesh of persistent TCP connections — one duplex connection per
// unordered rank pair, dialed by the lower rank, reused for the life of
// the world. Messages carry float64 payloads bit-exactly (length-prefixed
// frames, little-endian IEEE-754), so every collective that is
// bit-deterministic over the in-process channel mesh is bit-identical
// over TCP.
//
// Failure semantics: every blocked Send/Recv watches the peer's
// membership state and the per-op deadline, so a dead rank produces a
// timeout or peer-dead error — never a hang. A peer is declared dead when
// its link is receive-silent for HeartbeatTimeout (writers keep idle links
// warm with heartbeat frames), when its connection fails without a leave
// announcement, or when another rank gossips its death in an abort frame.
// Failed reports the accumulated dead set; CloseAbort spreads it so the
// survivors agree on the shrunken world and can re-rendezvous.
type TCPTransport struct {
	mailbox // filled by the readers, one queue per peer
	opt     TCPOptions
	addrs   []string

	conns []net.Conn
	wmu   []sync.Mutex // per-conn write lock: writer goroutine vs final leave/abort
	wbuf  [][]byte     // per-conn frame-encode scratch, guarded by wmu

	sendq []chan []float64

	mem       *membership
	closed    chan struct{}
	closeOnce sync.Once
	// finKind/finDead are the shutdown announcement (leave, abort+dead set,
	// or 0 for an abrupt Terminate), set before closed is closed and read by
	// the writer goroutines on their way out.
	finKind byte
	finDead []int
	readWg  sync.WaitGroup
	writeWg sync.WaitGroup
}

// ValidateWorld checks a rank/address-list pair without binding any
// socket, so a launcher can reject a bad -rank/-peers combination with a
// one-line diagnostic before any process starts listening. The transport
// constructor applies the same check.
func ValidateWorld(rank int, peers []string) error {
	if len(peers) < 1 {
		return fmt.Errorf("dist: peer list is empty")
	}
	if rank < 0 || rank >= len(peers) {
		return fmt.Errorf("dist: rank %d out of range [0,%d)", rank, len(peers))
	}
	seen := make(map[string]int, len(peers))
	for i, a := range peers {
		if strings.TrimSpace(a) == "" {
			return fmt.Errorf("dist: peer %d has an empty address", i)
		}
		if j, dup := seen[a]; dup {
			return fmt.Errorf("dist: duplicate peer address %q (ranks %d and %d)", a, j, i)
		}
		seen[a] = i
	}
	return nil
}

func worldHash(addrs []string) uint64 {
	h := fnv.New64a()
	for _, a := range addrs {
		io.WriteString(h, a)
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// NewTCPTransport binds peers[rank] and assembles the full mesh: it
// accepts one connection from every lower rank (each proving itself with
// a hello frame naming this exact world) and dials every higher rank with
// exponential backoff plus jitter, until all p-1 links are up or
// DialTimeout expires. All ranks must be started with the identical peers
// list; ranks may start in any order within the dial budget.
func NewTCPTransport(rank int, peers []string, opt TCPOptions) (*TCPTransport, error) {
	if err := ValidateWorld(rank, peers); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", peers[rank])
	if err != nil {
		return nil, fmt.Errorf("dist: rank %d listen %s: %w", rank, peers[rank], err)
	}
	return newTCPTransport(rank, peers, opt, ln)
}

// NewLocalTCPWorld assembles a p-rank world on loopback ephemeral ports,
// every rank in this process — the TCP analogue of NewChannelRing, for
// tests and single-machine experiments.
func NewLocalTCPWorld(p int, opt TCPOptions) ([]*TCPTransport, error) {
	if p < 1 {
		return nil, fmt.Errorf("dist: world size must be >= 1, got %d", p)
	}
	lns := make([]net.Listener, p)
	addrs := make([]string, p)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:r] {
				l.Close()
			}
			return nil, fmt.Errorf("dist: local world listen: %w", err)
		}
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	out := make([]*TCPTransport, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out[r], errs[r] = newTCPTransport(r, addrs, opt, lns[r])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			for _, t := range out {
				if t != nil {
					t.Terminate()
				}
			}
			return nil, fmt.Errorf("dist: local world rank %d: %w", r, err)
		}
	}
	return out, nil
}

func newTCPTransport(rank int, peers []string, opt TCPOptions, ln net.Listener) (*TCPTransport, error) {
	opt = opt.normalized()
	p := len(peers)
	t := &TCPTransport{
		mailbox: newMailbox(rank, p, opt.SendQueue, make(chan []float64, 2*p*opt.SendQueue)),
		opt:     opt,
		addrs:   append([]string(nil), peers...),
		conns:   make([]net.Conn, p),
		wmu:     make([]sync.Mutex, p),
		wbuf:    make([][]byte, p),
		sendq:   make([]chan []float64, p),
		mem:     newMembership(rank, p),
		closed:  make(chan struct{}),
	}
	for q := range t.sendq {
		if q != rank {
			t.sendq[q] = make(chan []float64, opt.SendQueue)
		}
	}
	if p == 1 {
		ln.Close() // no links to build; a 1-rank world needs no listener
		return t, nil
	}
	if err := t.rendezvous(ln); err != nil {
		ln.Close()
		for _, c := range t.conns {
			if c != nil {
				c.Close()
			}
		}
		return nil, err
	}
	// All links are up: the listener's job is done (the mesh is complete,
	// nobody dials after rendezvous), and closing it frees the port
	// promptly for a post-failure re-rendezvous.
	ln.Close()
	for q := range t.conns {
		if t.conns[q] != nil {
			t.readWg.Add(1)
			t.writeWg.Add(1)
			go t.readLoop(q)
			go t.writeLoop(q)
		}
	}
	return t, nil
}

// rendezvous builds the mesh: accept a connection from every rank below
// ours, dial every rank above ours. Either side failing past the deadline
// fails the whole endpoint.
func (t *TCPTransport) rendezvous(ln net.Listener) error {
	deadline := time.Now().Add(t.opt.DialTimeout)
	hash := worldHash(t.addrs)

	acceptDone := make(chan error, 1)
	if t.rank == 0 {
		acceptDone <- nil
	} else {
		if dl, ok := ln.(*net.TCPListener); ok {
			dl.SetDeadline(deadline)
		}
		go func() { acceptDone <- t.acceptLower(ln, deadline, hash) }()
	}

	var dialWg sync.WaitGroup
	dialErrs := make([]error, t.p)
	for q := t.rank + 1; q < t.p; q++ {
		dialWg.Add(1)
		go func(q int) {
			defer dialWg.Done()
			conn, err := t.dialPeer(q, deadline, hash)
			if err != nil {
				dialErrs[q] = err
				return
			}
			t.conns[q] = conn
		}(q)
	}
	dialWg.Wait()
	for _, err := range dialErrs {
		if err != nil {
			ln.Close() // end the accept side before the caller closes t.conns
			<-acceptDone
			return err
		}
	}
	return <-acceptDone
}

// acceptLower accepts one connection from every rank below ours. Each
// hello is read off the accept loop, so a connection that never sends one
// (a port scanner, a half-open socket) cannot hold it; a stray, stale or
// duplicate dialer is dropped.
func (t *TCPTransport) acceptLower(ln net.Listener, deadline time.Time, hash uint64) error {
	type hello struct {
		conn net.Conn
		rank int
		err  error
	}
	hellos := make(chan hello)
	acceptErr := make(chan error, 1)
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				acceptErr <- err
				return
			}
			go func() {
				q, err := readHello(conn, t.p, hash, deadline)
				select {
				case hellos <- hello{conn, q, err}:
				case <-done:
					conn.Close()
				}
			}()
		}
	}()
	for need := t.rank; need > 0; {
		select {
		case h := <-hellos:
			if h.err != nil || h.rank >= t.rank || t.conns[h.rank] != nil {
				h.conn.Close()
				continue
			}
			t.conns[h.rank] = h.conn
			need--
		case err := <-acceptErr:
			return fmt.Errorf("dist: rank %d accept (still waiting for %d lower ranks): %w", t.rank, need, err)
		}
	}
	return nil
}

// dialPeer dials rank q with exponential backoff plus jitter until the
// rendezvous deadline: connection refused just means the peer has not
// bound its port yet (it may be restarting after a failure).
func (t *TCPTransport) dialPeer(q int, deadline time.Time, hash uint64) (net.Conn, error) {
	backoff := dialRetryBase
	var lastErr error
	for attempt := 1; ; attempt++ {
		d := net.Dialer{Deadline: deadline}
		conn, err := d.Dial("tcp", t.addrs[q])
		if err == nil {
			conn.SetWriteDeadline(deadline) // every later frame sets its own
			if _, err = conn.Write(helloFrame(t.p, t.rank, hash)); err == nil {
				return conn, nil
			}
			conn.Close()
		}
		lastErr = err
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, fmt.Errorf("dist: rank %d dial rank %d (%s): rendezvous deadline after %d attempts: %w",
				t.rank, q, t.addrs[q], attempt, lastErr)
		}
		sleep := backoff/2 + time.Duration(rand.Int64N(int64(backoff/2)+1))
		if sleep > remaining {
			sleep = remaining
		}
		time.Sleep(sleep)
		if backoff *= 2; backoff > dialRetryMax {
			backoff = dialRetryMax
		}
	}
}

// helloFrame encodes a dialer's hello frame, header included.
func helloFrame(world, rank int, hash uint64) []byte {
	buf := make([]byte, frameHeaderLen+helloBytes)
	buf[0] = frameHello
	binary.BigEndian.PutUint32(buf[1:], helloBytes)
	binary.BigEndian.PutUint32(buf[5:], helloMagic)
	binary.BigEndian.PutUint32(buf[9:], uint32(world))
	binary.BigEndian.PutUint32(buf[13:], uint32(rank))
	binary.BigEndian.PutUint64(buf[17:], hash)
	return buf
}

// readHello reads a dialer's hello frame by the deadline (the link's
// reader sets its own from then on) and returns the rank parseHello finds.
func readHello(conn net.Conn, world int, hash uint64, deadline time.Time) (int, error) {
	var buf [frameHeaderLen + helloBytes]byte
	conn.SetReadDeadline(deadline)
	if _, err := io.ReadFull(conn, buf[:]); err != nil {
		return -1, err
	}
	return parseHello(buf[:], world, hash)
}

// parseHello validates a hello frame, header included, and returns the
// sender's rank in [0, world), or an error for a malformed frame or a
// connection from another world (wrong magic, size or address list — e.g.
// a stale dial from before an elastic reform).
func parseHello(b []byte, world int, hash uint64) (int, error) {
	if len(b) != frameHeaderLen+helloBytes || b[0] != frameHello || binary.BigEndian.Uint32(b[1:]) != helloBytes {
		return -1, fmt.Errorf("dist: malformed hello frame")
	}
	if binary.BigEndian.Uint32(b[5:]) != helloMagic {
		return -1, fmt.Errorf("dist: bad hello magic")
	}
	if got := int(binary.BigEndian.Uint32(b[9:])); got != world {
		return -1, fmt.Errorf("dist: hello from a %d-rank world, want %d", got, world)
	}
	if got := binary.BigEndian.Uint64(b[17:]); got != hash {
		return -1, fmt.Errorf("dist: hello from a world with a different address list")
	}
	rank := int(binary.BigEndian.Uint32(b[13:]))
	if rank < 0 || rank >= world {
		return -1, fmt.Errorf("dist: hello from rank %d of a %d-rank world", rank, world)
	}
	return rank, nil
}

// Failed returns the ranks this endpoint has declared dead (directly
// detected or gossiped), ascending. Ranks that left cleanly — survivors
// aborting to reform, or a finished run shutting down — are not failures.
func (t *TCPTransport) Failed() []int { return t.mem.deadRanks() }

func (t *TCPTransport) logf(format string, args ...any) {
	if t.opt.Logf != nil {
		t.opt.Logf(format, args...)
	}
}

func (t *TCPTransport) opTimer() (<-chan time.Time, *time.Timer) {
	if t.opt.OpTimeout <= 0 {
		return nil, nil
	}
	tm := time.NewTimer(t.opt.OpTimeout)
	return tm.C, tm
}

// Send implements Transport: the message is copied into the peer's bounded
// send queue (the caller may reuse buf immediately) and written to the
// wire by the link's writer goroutine. A full queue is backpressure: Send
// blocks until space frees, the peer is declared gone, or OpTimeout
// expires — it cannot hang on a dead peer.
func (t *TCPTransport) Send(to int, buf []float64) error {
	if err := t.checkPeer(to); err != nil {
		return err
	}
	select {
	case <-t.closed:
		return fmt.Errorf("dist: send to rank %d: %w", to, ErrClosed)
	default:
	}
	if err := t.mem.errFor(to); err != nil {
		return fmt.Errorf("dist: send to rank %d: %w", to, err)
	}
	msg := t.getBuf(len(buf))
	copy(msg, buf)
	timeout, tm := t.opTimer()
	if tm != nil {
		defer tm.Stop()
	}
	select {
	case t.sendq[to] <- msg:
		return nil
	case <-t.mem.goneCh(to):
		t.putBuf(msg)
		return fmt.Errorf("dist: send to rank %d: %w", to, t.mem.errFor(to))
	case <-t.closed:
		t.putBuf(msg)
		return fmt.Errorf("dist: send to rank %d: %w", to, ErrClosed)
	case <-timeout:
		t.putBuf(msg)
		return fmt.Errorf("dist: send to rank %d: %w after %v (backpressure: peer not draining)",
			to, ErrDeadline, t.opt.OpTimeout)
	}
}

// Recv implements Transport: it pops the next message from the peer's
// inbox, failing — never hanging — when the peer is declared gone or the
// OpTimeout deadline expires first. Messages already delivered before a
// death notice are still handed out (drain-first), preserving in-order
// delivery up to the failure point.
func (t *TCPTransport) Recv(from int, buf []float64) error {
	if err := t.checkPeer(from); err != nil {
		return err
	}
	select {
	case msg := <-t.inbox[from]:
		return t.deliver(from, msg, buf)
	default:
	}
	timeout, tm := t.opTimer()
	if tm != nil {
		defer tm.Stop()
	}
	select {
	case msg := <-t.inbox[from]:
		return t.deliver(from, msg, buf)
	case <-t.mem.goneCh(from):
		select { // the reader may have enqueued a message before the notice
		case msg := <-t.inbox[from]:
			return t.deliver(from, msg, buf)
		default:
		}
		return fmt.Errorf("dist: recv from rank %d: %w", from, t.mem.errFor(from))
	case <-t.closed:
		return fmt.Errorf("dist: recv from rank %d: %w", from, ErrClosed)
	case <-timeout:
		return fmt.Errorf("dist: recv from rank %d: %w after %v", from, ErrDeadline, t.opt.OpTimeout)
	}
}

// ErrBadFrame reports an inbound frame that breaks the wire protocol: an
// unknown kind, a payload longer than maxFramePayload, or one whose length
// does not fit the kind. A truncated frame reads as io.ErrUnexpectedEOF.
var ErrBadFrame = errors.New("dist: malformed frame")

// frameChunk is the most a frame's payload buffer grows by before the
// bytes it makes room for have arrived.
const frameChunk = 1 << 20

// readFrame reads one frame from r — any kind but hello, which readHello
// reads — and returns its kind and payload, which reuses buf's storage.
// The payload grows as its bytes arrive, at most doubling and by at most
// frameChunk more than has arrived, so a header that claims more than the
// stream holds costs what the stream holds, not what the header claims.
// The error is io.EOF for a clean end before a header, io.ErrUnexpectedEOF
// (or r's own error) for a frame cut short, and ErrBadFrame for a frame
// that breaks the protocol.
func readFrame(r io.Reader, buf []byte) (kind byte, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, buf[:0], err
	}
	kind = hdr[0]
	n := int(binary.BigEndian.Uint32(hdr[1:]))
	switch {
	case n > maxFramePayload:
		return kind, buf[:0], fmt.Errorf("%w: %d payload bytes", ErrBadFrame, n)
	case kind == frameData && n%8 != 0:
		return kind, buf[:0], fmt.Errorf("%w: data frame of %d bytes (not a float64 multiple)", ErrBadFrame, n)
	case kind == frameAbort && n%4 != 0:
		return kind, buf[:0], fmt.Errorf("%w: abort frame of %d bytes (not a rank multiple)", ErrBadFrame, n)
	case kind != frameData && kind != frameHeartbeat && kind != frameLeave && kind != frameAbort:
		return kind, buf[:0], fmt.Errorf("%w: unknown frame kind 0x%02x", ErrBadFrame, kind)
	}
	payload = buf[:0]
	for len(payload) < n {
		if len(payload) == cap(payload) {
			grown := make([]byte, len(payload), len(payload)+min(n-len(payload), max(len(payload), frameChunk)))
			payload = grown[:copy(grown, payload)]
		}
		got, err := io.ReadFull(r, payload[len(payload):min(n, cap(payload))])
		payload = payload[:len(payload)+got]
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return kind, payload, err
		}
	}
	return kind, payload, nil
}

// linkReader reads one link with the failure detector's deadline: every
// read must bring bytes within HeartbeatTimeout.
type linkReader struct {
	conn    net.Conn
	timeout time.Duration
}

func (l linkReader) Read(p []byte) (int, error) {
	l.conn.SetReadDeadline(time.Now().Add(l.timeout))
	return l.conn.Read(p)
}

// readLoop is the sole reader of one link. The read deadline doubles as
// the failure detector: the peer's writer guarantees a frame at least
// every tenth of HeartbeatTimeout, so HeartbeatTimeout of silence — before a
// frame or inside one — or a connection error without a leave/abort
// announcement declares it dead, which closes the membership gone-channel
// and unblocks every pending operation against that rank.
func (t *TCPTransport) readLoop(q int) {
	defer t.readWg.Done()
	conn := t.conns[q]
	r := linkReader{conn, t.opt.HeartbeatTimeout}
	var payload []byte
	for {
		var kind byte
		var err error
		kind, payload, err = readFrame(r, payload)
		if err != nil {
			t.linkFailed(q, "read", err)
			return
		}
		switch kind {
		case frameHeartbeat:
			// Liveness proven by arrival; nothing to deliver.
		case frameData:
			msg := t.getBuf(len(payload) / 8)
			for i := range msg {
				msg[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
			}
			select {
			case t.inbox[q] <- msg:
			case <-t.closed:
				return
			}
		case frameLeave:
			if t.mem.markLeft(q, "clean shutdown") {
				t.logf("dist: rank %d: peer %d left cleanly", t.rank, q)
			}
			conn.Close()
			return
		case frameAbort:
			var dead []int
			for i := 0; i < len(payload); i += 4 {
				if d := int(binary.BigEndian.Uint32(payload[i:])); d != t.rank && d >= 0 && d < t.p {
					dead = append(dead, d)
				}
			}
			t.declareDead(dead, fmt.Sprintf("reported dead by rank %d", q), q)
			conn.Close()
			return
		}
	}
}

// linkFailed writes q off after an I/O error on its link, unless our own
// shutdown caused it. A timeout is the failure detector firing.
func (t *TCPTransport) linkFailed(q int, op string, err error) {
	select {
	case <-t.closed:
		return
	default:
	}
	reason := fmt.Sprintf("%s failed: %v", op, err)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		reason = fmt.Sprintf("heartbeat timeout: %s stalled beyond %v", op, t.opt.HeartbeatTimeout)
	}
	t.declareDead([]int{q}, reason, -1)
}

// declareDead is the one way peers are written off: after a read or write
// failure (aborter -1), or by the gossip of rank aborter's abort, whose
// clean departure membership records in the same step as the deaths it
// reports. The first cause wins; each new death is logged and its link
// closed, which unblocks a writer stuck mid-Write.
func (t *TCPTransport) declareDead(qs []int, reason string, aborter int) {
	dead, left := t.mem.markDead(qs, reason, aborter)
	if left {
		t.logf("dist: rank %d: peer %d aborted to reform", t.rank, aborter)
	}
	for _, q := range dead {
		t.logf("dist: rank %d: peer %d declared dead (%s)", t.rank, q, reason)
		t.conns[q].Close()
	}
}

// writeLoop is the per-link writer: it drains the send queue and keeps
// the link warm with heartbeats whenever it has been idle for a tenth of
// HeartbeatTimeout, so the peer's failure detector only fires on real
// silence.
func (t *TCPTransport) writeLoop(q int) {
	defer t.writeWg.Done()
	interval := t.opt.HeartbeatTimeout / 10
	hb := time.NewTimer(interval)
	defer hb.Stop()
	for {
		select {
		case <-t.closed:
			t.finish(q)
			return
		case <-t.mem.goneCh(q):
			return
		case msg := <-t.sendq[q]:
			err := t.writeFrame(q, frameData, msg, nil)
			t.putBuf(msg)
			if err != nil {
				t.linkFailed(q, "write", err)
				return
			}
		case <-hb.C:
			if err := t.writeFrame(q, frameHeartbeat, nil, nil); err != nil {
				t.linkFailed(q, "write", err)
				return
			}
		}
		if !hb.Stop() {
			select {
			case <-hb.C:
			default:
			}
		}
		hb.Reset(interval)
	}
}

// finish is the writer's shutdown path: it flushes every message already
// accepted into the send queue — Send returned success for them, so they
// must reach the wire ahead of the goodbye — then announces the shutdown
// kind chosen by Close/CloseAbort. Terminate (kind 0) skips both: an
// abrupt death drops queued data exactly like a killed process would.
func (t *TCPTransport) finish(q int) {
	if t.finKind == 0 || !t.mem.alive(q) {
		return
	}
	for {
		select {
		case msg := <-t.sendq[q]:
			err := t.writeFrame(q, frameData, msg, nil)
			t.putBuf(msg)
			if err != nil {
				return
			}
		default:
			t.writeFrame(q, t.finKind, nil, t.finDead)
			return
		}
	}
}

// writeFrame encodes one frame into the link's scratch buffer and writes
// it with a single conn.Write, under the link's write lock (the shutdown
// path writes its final leave/abort frame from another goroutine). vals
// carries a data payload, deadRanks an abort payload; both nil for
// heartbeats and leaves.
func (t *TCPTransport) writeFrame(q int, kind byte, vals []float64, deadRanks []int) error {
	t.wmu[q].Lock()
	defer t.wmu[q].Unlock()
	return t.writeFrameLocked(q, kind, vals, deadRanks)
}

func (t *TCPTransport) writeFrameLocked(q int, kind byte, vals []float64, deadRanks []int) error {
	n := 8 * len(vals)
	if deadRanks != nil {
		n = 4 * len(deadRanks)
	}
	need := frameHeaderLen + n
	if cap(t.wbuf[q]) < need {
		t.wbuf[q] = make([]byte, need)
	}
	b := t.wbuf[q][:need]
	b[0] = kind
	binary.BigEndian.PutUint32(b[1:], uint32(n))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[frameHeaderLen+8*i:], math.Float64bits(v))
	}
	for i, d := range deadRanks {
		binary.BigEndian.PutUint32(b[frameHeaderLen+4*i:], uint32(d))
	}
	conn := t.conns[q]
	conn.SetWriteDeadline(time.Now().Add(t.opt.HeartbeatTimeout + time.Duration(n>>20)*time.Second))
	_, err := conn.Write(b)
	return err
}

// Close leaves the world cleanly: a leave frame is sent to every peer
// still alive (so they record a departure, not a death), then every
// connection and goroutine is torn down. Idempotent, like Terminate and
// CloseAbort — the first shutdown wins.
func (t *TCPTransport) Close() error { return t.shutdown(frameLeave, nil) }

// CloseAbort leaves announcing failures: every surviving peer receives an
// abort frame carrying the dead set, adopts it (gossip), and can compute
// the same shrunken world without a coordinator. Survivors call it after
// an epoch fails, before re-rendezvousing at the smaller world size.
func (t *TCPTransport) CloseAbort(dead []int) error { return t.shutdown(frameAbort, dead) }

// Terminate tears the endpoint down abruptly — no leave frames, exactly
// the wire picture of a killed process. Peers detect the death via
// connection error or heartbeat timeout. Fault injection for tests.
func (t *TCPTransport) Terminate() { t.shutdown(0, nil) }

func (t *TCPTransport) shutdown(kind byte, dead []int) error {
	t.closeOnce.Do(func() {
		t.finKind = kind
		t.finDead = dead
		close(t.closed)
		// The writers drain their queues and say goodbye (finish) before
		// the connections go away under them; closing the conns afterwards
		// is what unblocks the readers.
		t.writeWg.Wait()
		for _, conn := range t.conns {
			if conn != nil {
				conn.Close()
			}
		}
	})
	t.readWg.Wait()
	t.writeWg.Wait()
	return nil
}
