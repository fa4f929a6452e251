package dist

// TCPTransport correctness bars: the wire transport must be bit-identical
// to the in-process channel mesh (same collectives, same training
// trajectory, down to the last ulp), and every failure mode — abrupt
// death, heartbeat silence, backpressure against a stuck peer — must end
// in a timely error, never a hang.

import (
	"errors"
	"math"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"mgdiffnet/internal/core"
)

// fastTCPOptions keeps failure-path tests snappy: tight heartbeats and
// short op deadlines, loopback-scale dial budget.
func fastTCPOptions() TCPOptions {
	return TCPOptions{
		DialTimeout:      10 * time.Second,
		OpTimeout:        2 * time.Second,
		HeartbeatTimeout: 500 * time.Millisecond,
		SendQueue:        16,
	}
}

func TestValidateWorld(t *testing.T) {
	good := []string{"a:1", "b:2", "c:3"}
	if err := ValidateWorld(1, good); err != nil {
		t.Fatalf("valid world rejected: %v", err)
	}
	cases := map[string]struct {
		rank  int
		peers []string
	}{
		"empty list":    {0, nil},
		"rank negative": {-1, good},
		"rank too big":  {3, good},
		"empty address": {0, []string{"a:1", " ", "c:3"}},
		"duplicate":     {0, []string{"a:1", "b:2", "a:1"}},
	}
	for name, c := range cases {
		if err := ValidateWorld(c.rank, c.peers); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

// closeWorld tears down every endpoint of a local world (test cleanup).
func closeWorld(ts []*TCPTransport) {
	for _, tr := range ts {
		if tr != nil {
			tr.Terminate()
		}
	}
}

// The wire format must round-trip every float64 bit pattern: negative
// zero, denormals, infinities, and NaN payloads included.
func TestTCPSendRecvBitExact(t *testing.T) {
	world, err := NewLocalTCPWorld(2, fastTCPOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld(world)

	vals := []float64{
		0, math.Copysign(0, -1), 1.5, -math.Pi,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8_0000_dead_beef), // NaN with payload
	}
	done := make(chan error, 1)
	go func() {
		got := make([]float64, len(vals))
		if err := world[1].Recv(0, got); err != nil {
			done <- err
			return
		}
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				done <- errors.New("bit mismatch at index " + string(rune('0'+i)))
				return
			}
		}
		done <- nil
	}()
	if err := world[0].Send(1, vals); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// Allreduce over TCP must produce the exact bits of the in-process mesh.
func TestTCPAllReduceMatchesChannelMesh(t *testing.T) {
	const p, n = 4, 57
	vecs := testVectors(p, n)

	ref := make([][]float64, p)
	runComms(t, p, func(c *Communicator) error {
		x := append([]float64(nil), vecs[c.Rank()]...)
		err := c.AllReduce(x)
		ref[c.Rank()] = x
		return err
	})

	world, err := NewLocalTCPWorld(p, fastTCPOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld(world)
	got := make([][]float64, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			x := append([]float64(nil), vecs[r]...)
			errs[r] = NewCommunicator(world[r]).AllReduce(x)
			got[r] = x
		}(r)
	}
	wg.Wait()
	for r := 0; r < p; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		for i := range ref[r] {
			if math.Float64bits(got[r][i]) != math.Float64bits(ref[r][i]) {
				t.Fatalf("rank %d elem %d: tcp %v vs in-process %v — must be bit-identical",
					r, i, got[r][i], ref[r][i])
			}
		}
	}
}

// The acceptance bar of the transport: a 4-rank multigrid training run
// over TCP loopback — four ParallelTrainers, each one rank over its own
// endpoint, each driving its own RunSchedule — finishes with weights
// bit-identical to the 4-worker in-process trainer, and all ranks agree.
func TestTCPWorldMatchesInProcessBitExact(t *testing.T) {
	cfg := multigridCfg()

	ref := newMultigridPT(t, cfg, 4)
	defer ref.Close()
	repRef, err := core.RunSchedule(cfg, ref, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	world, err := NewLocalTCPWorld(4, DefaultTCPOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld(world)
	pts := make([]*ParallelTrainer, 4)
	reps := make([]*core.Report, 4)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		pt, err := NewParallelTrainer(ParallelConfig{
			Transport:   world[r],
			Dim:         cfg.Dim,
			Res:         cfg.FinestRes,
			Samples:     cfg.Samples,
			GlobalBatch: cfg.BatchSize,
			LR:          cfg.LR,
			Seed:        cfg.Seed,
			Net:         cfg.Net,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer pt.Close()
		pts[r] = pt
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			reps[r], errs[r] = core.RunSchedule(cfg, pts[r], core.RunOptions{})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("tcp rank %d: %v", r, err)
		}
	}
	for r := 0; r < 4; r++ {
		if reps[r].FinalLoss != repRef.FinalLoss {
			t.Fatalf("rank %d final loss %v vs in-process %v", r, reps[r].FinalLoss, repRef.FinalLoss)
		}
		requireSameParams(t, "tcp rank vs in-process", ref.Net().Params(), pts[r].Net().Params())
	}
	for r := range world {
		world[r].Close()
	}
}

// An abruptly terminated rank must be detected (connection error or
// heartbeat silence) and declared dead — pending and future operations
// against it error out promptly, and traffic between survivors still
// flows.
func TestTCPDeathDetection(t *testing.T) {
	world, err := NewLocalTCPWorld(3, fastTCPOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld(world)

	// A Recv blocked on the doomed rank must be unblocked by its death,
	// well before the 2s op deadline.
	recvErr := make(chan error, 1)
	go func() {
		buf := make([]float64, 4)
		recvErr <- world[0].Recv(2, buf)
	}()
	time.Sleep(20 * time.Millisecond) // let the Recv block
	world[2].Terminate()

	select {
	case err := <-recvErr:
		if !errors.Is(err, ErrPeerDead) && !errors.Is(err, ErrDeadline) {
			t.Fatalf("blocked recv got %v, want peer-dead or deadline", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recv from the terminated rank never returned")
	}

	// Both survivors converge on the same dead set.
	for _, r := range []int{0, 1} {
		deadlineAt := time.Now().Add(5 * time.Second)
		for {
			failed := world[r].Failed()
			if len(failed) == 1 && failed[0] == 2 {
				break
			}
			if time.Now().After(deadlineAt) {
				t.Fatalf("rank %d never declared rank 2 dead (failed=%v)", r, failed)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Fresh operations against the dead rank fail immediately.
	if err := world[0].Send(2, []float64{1}); !errors.Is(err, ErrPeerDead) {
		t.Fatalf("send to dead rank: %v, want ErrPeerDead", err)
	}

	// The surviving pair still communicates.
	msg := []float64{3, 1, 4}
	got := make([]float64, 3)
	sendErr := make(chan error, 1)
	go func() { sendErr <- world[0].Send(1, msg) }()
	if err := world[1].Recv(0, got); err != nil {
		t.Fatalf("survivor recv: %v", err)
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("survivor send: %v", err)
	}
	if got[0] != 3 || got[1] != 1 || got[2] != 4 {
		t.Fatalf("survivor message corrupted: %v", got)
	}
}

// Terminating a rank silences it: its own Send and Recv fail with
// ErrClosed, and a peer blocked on it is released with a peer-dead or
// deadline error instead of hanging.
func TestTCPTerminateSilencesRank(t *testing.T) {
	world, err := NewLocalTCPWorld(2, fastTCPOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld(world)

	recvErr := make(chan error, 1)
	go func() {
		buf := make([]float64, 2)
		recvErr <- world[0].Recv(1, buf)
	}()
	world[1].Terminate()
	if err := world[1].Send(0, []float64{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on the terminated endpoint: %v, want ErrClosed", err)
	}
	if err := world[1].Recv(0, make([]float64, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv on the terminated endpoint: %v, want ErrClosed", err)
	}

	select {
	case err := <-recvErr:
		if !errors.Is(err, ErrPeerDead) && !errors.Is(err, ErrDeadline) {
			t.Fatalf("recv from the terminated rank: %v, want peer-dead or deadline", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("recv from the terminated rank never returned")
	}
}

// A rank that closes cleanly is a departure, not a failure: peers record
// it as left (with a distinct error) and the dead set stays empty.
func TestTCPCleanCloseIsNotFailure(t *testing.T) {
	world, err := NewLocalTCPWorld(2, fastTCPOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld(world)
	world[1].Close()

	deadlineAt := time.Now().Add(5 * time.Second)
	for world[0].mem.alive(1) {
		if time.Now().After(deadlineAt) {
			t.Fatal("rank 0 never noticed the clean departure")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := world[0].Send(1, []float64{1}); !errors.Is(err, ErrPeerLeft) {
		t.Fatalf("send to departed rank: %v, want ErrPeerLeft", err)
	}
	if failed := world[0].Failed(); len(failed) != 0 {
		t.Fatalf("clean departure counted as failure: %v", failed)
	}
}

// CloseAbort gossips the dead set: a survivor that never talked to the
// dead rank directly still learns of the death from the aborting peer.
func TestTCPAbortGossipsDeadSet(t *testing.T) {
	world, err := NewLocalTCPWorld(3, fastTCPOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld(world)

	world[0].CloseAbort([]int{2})

	deadlineAt := time.Now().Add(5 * time.Second)
	for {
		failed := world[1].Failed()
		if len(failed) == 1 && failed[0] == 2 {
			break
		}
		if time.Now().After(deadlineAt) {
			t.Fatalf("rank 1 never adopted the gossiped dead set (failed=%v)", failed)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The aborting rank itself left cleanly — it is a survivor reforming,
	// not a casualty.
	if err := world[1].Send(0, []float64{1}); !errors.Is(err, ErrPeerLeft) {
		t.Fatalf("send to aborted rank: %v, want ErrPeerLeft", err)
	}
}

// A rank released from a Recv by an abort must already see the abort's
// dead set: an elastic survivor reads Failed() once, right after its epoch
// fails, to decide whether to reform. A slow logger widens any window
// between the aborter's departure and the adopted deaths.
func TestTCPAbortDeadSetVisibleWhenRecvReturns(t *testing.T) {
	opt := fastTCPOptions()
	opt.Logf = func(string, ...any) { time.Sleep(100 * time.Millisecond) }
	world, err := NewLocalTCPWorld(3, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld(world)

	type result struct {
		err    error
		failed []int
	}
	done := make(chan result, 1)
	go func() {
		err := world[1].Recv(0, make([]float64, 1))
		done <- result{err, world[1].Failed()}
	}()
	time.Sleep(50 * time.Millisecond) // let rank 1 block in Recv
	world[0].CloseAbort([]int{2})

	select {
	case r := <-done:
		if !errors.Is(r.err, ErrPeerLeft) {
			t.Fatalf("recv from aborted rank: %v, want ErrPeerLeft", r.err)
		}
		if len(r.failed) != 1 || r.failed[0] != 2 {
			t.Fatalf("Failed() = %v when Recv returned, want [2]", r.failed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recv from aborted rank never returned")
	}
}

// Rendezvous must give up at the dial deadline when a peer never shows.
func TestTCPRendezvousTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	absent := ln.Addr().String()
	ln.Close() // nobody is listening here anymore

	opt := fastTCPOptions()
	opt.DialTimeout = 300 * time.Millisecond
	start := time.Now()
	_, err = NewTCPTransport(0, []string{"127.0.0.1:0", absent}, opt)
	if err == nil {
		t.Fatal("rendezvous with an absent peer should fail")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("rendezvous took %v, should give up around the 300ms deadline", elapsed)
	}
	if !strings.Contains(err.Error(), "rendezvous deadline") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// Pure receive silence — a peer whose writer heartbeats far too slowly —
// must trip the heartbeat-timeout detector even though the connection
// stays open.
func TestTCPHeartbeatTimeoutDetectsSilence(t *testing.T) {
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	// Rank 1 heartbeats so rarely (every hour) that rank 0's 300ms
	// silence budget fires.
	optSlow := fastTCPOptions()
	optSlow.HeartbeatTimeout = 10 * time.Hour
	optFast := fastTCPOptions()
	optFast.HeartbeatTimeout = 300 * time.Millisecond

	var slow, fast *TCPTransport
	var errSlow, errFast error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); fast, errFast = newTCPTransport(0, addrs, optFast, lns[0]) }()
	go func() { defer wg.Done(); slow, errSlow = newTCPTransport(1, addrs, optSlow, lns[1]) }()
	wg.Wait()
	if errFast != nil || errSlow != nil {
		t.Fatalf("rendezvous: %v / %v", errFast, errSlow)
	}
	defer fast.Terminate()
	defer slow.Terminate()

	deadlineAt := time.Now().Add(5 * time.Second)
	for fast.mem.alive(1) {
		if time.Now().After(deadlineAt) {
			t.Fatal("silent peer never declared dead by heartbeat timeout")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := fast.mem.errFor(1); !errors.Is(err, ErrPeerDead) ||
		!strings.Contains(err.Error(), "heartbeat timeout") {
		t.Fatalf("want heartbeat-timeout death, got %v", err)
	}
}

// A peer that accepts frames but never drains them eventually exhausts
// the bounded send queue; Send must fail with the deadline error instead
// of blocking forever.
func TestTCPSendBackpressureTimesOut(t *testing.T) {
	opt := fastTCPOptions()
	opt.SendQueue = 1
	opt.OpTimeout = 250 * time.Millisecond
	world, err := NewLocalTCPWorld(2, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld(world)

	// Rank 1 never calls Recv: rank 0's frames pile up in rank 1's inbox
	// (capacity 1), then in its own send queue (capacity 1), then Send
	// must report backpressure. The large payload and message count also
	// outrun the kernel socket buffers.
	payload := make([]float64, 1<<16)
	var last error
	for i := 0; i < 64; i++ {
		if last = world[0].Send(1, payload); last != nil {
			break
		}
	}
	if !errors.Is(last, ErrDeadline) {
		t.Fatalf("send against a stuck peer: %v, want ErrDeadline", last)
	}
}

// A peer that is alive — its links heartbeat — but never sends must end a
// collective in ErrDeadline, and a training epoch within one OpTimeout:
// once a batch's first collective has failed, the batch's remaining
// buckets are skipped instead of each waiting out its own deadline.
func TestTCPSilentPeerFailsEpochWithinOneDeadline(t *testing.T) {
	opt := fastTCPOptions()
	opt.OpTimeout = 200 * time.Millisecond
	world, err := NewLocalTCPWorld(2, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld(world)
	// Rank 1 never calls Send or Recv; only its writer's heartbeats flow.

	if err := NewCommunicator(world[0]).AllReduce([]float64{0, 1, 2, 3}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("allreduce against a silent peer: %v, want ErrDeadline", err)
	}

	cfg := multigridCfg()
	pt := newTransportPT(t, cfg, world[0], 64)
	defer pt.Close()
	nb := pt.reps[0].plan.numBuckets()
	start := time.Now()
	_, err = pt.TrainEpoch(cfg.FinestRes)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("epoch against a silent peer: %v, want ErrDeadline", err)
	}
	if elapsed > 3*opt.OpTimeout {
		t.Fatalf("epoch with %d buckets failed after %v, want within %v", nb, elapsed, 3*opt.OpTimeout)
	}
	if failed := world[0].Failed(); len(failed) != 0 {
		t.Fatalf("a heartbeating peer was declared dead: %v", failed)
	}
}

// Connections that never prove themselves must not hold the rendezvous: an
// idle connection and one that sends garbage reach rank 1's listener ahead
// of rank 0, and the world still forms, with the garbage sender dropped.
func TestTCPRendezvousSurvivesStrayConnections(t *testing.T) {
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	idle, err := net.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	garbage, err := net.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer garbage.Close()
	if _, err := garbage.Write([]byte(strings.Repeat("GET / HTTP/1.0\r\n", 4))); err != nil {
		t.Fatal(err)
	}

	opt := fastTCPOptions()
	opt.DialTimeout = 2 * time.Second
	world := make([]*TCPTransport, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := range world {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			world[r], errs[r] = newTCPTransport(r, addrs, opt, lns[r])
		}(r)
	}
	wg.Wait()
	defer closeWorld(world)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	// Dropped with bytes unread, the connection may read as reset, not EOF.
	garbage.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := garbage.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("garbage sender: read %v, want the connection dropped", err)
	}
	got := make([]float64, 1)
	sendErr := make(chan error, 1)
	go func() { sendErr <- world[0].Send(1, []float64{7}) }()
	if err := world[1].Recv(0, got); err != nil || got[0] != 7 {
		t.Fatalf("recv over the formed world: %v %v", got, err)
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
}
