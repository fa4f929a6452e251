package dist

import (
	"errors"
	"fmt"
	"sync"
)

// Peer lifecycle. A peer starts alive and transitions exactly once, to
// either left (clean shutdown: it announced a leave or abort before its
// connection went away) or dead (failure: heartbeat timeout, connection
// error with no announcement, or a death reported by another rank). The
// distinction is what drives elastic recovery — dead ranks are removed
// from the world, left ranks are survivors that aborted to reform.
const (
	peerAlive = iota
	peerLeft
	peerDead
)

// Sentinel causes for transport operation failures. Call sites wrap them
// with rank and operation context; callers test with errors.Is.
var (
	// ErrPeerDead reports an operation against a rank this endpoint has
	// declared dead (heartbeat timeout, connection failure, or gossip).
	ErrPeerDead = errors.New("peer dead")
	// ErrPeerLeft reports an operation against a rank that shut down
	// cleanly (leave or abort announcement) — a survivor, not a failure.
	ErrPeerLeft = errors.New("peer left")
	// ErrDeadline reports a Send/Recv that exceeded its per-op deadline
	// while the peer was still considered alive.
	ErrDeadline = errors.New("deadline exceeded")
	// ErrClosed reports an operation on a locally closed endpoint.
	ErrClosed = errors.New("transport closed")
)

// membership tracks the lifecycle of every peer of one endpoint. Blocked
// transport operations select on goneCh so a peer's death or departure
// unblocks them immediately — the membership layer is why a dead rank
// produces an ErrPeerDead or ErrPeerLeft error at once instead of a hang
// or an OpTimeout wait.
type membership struct {
	mu     sync.Mutex
	states []int
	reason []string
	gone   []chan struct{} // closed when the peer leaves peerAlive; nil at self
}

func newMembership(rank, p int) *membership {
	m := &membership{
		states: make([]int, p),
		reason: make([]string, p),
		gone:   make([]chan struct{}, p),
	}
	for q := range m.gone {
		if q != rank {
			m.gone[q] = make(chan struct{})
		}
	}
	return m
}

// goneCh returns the channel closed when peer q stops being alive (dead or
// left). Selecting on it is how Send/Recv avoid blocking on a gone peer.
func (m *membership) goneCh(q int) <-chan struct{} { return m.gone[q] }

// markDead transitions every rank in qs to dead and returns those this call
// moved (a rank already gone keeps its first cause). When aborter ≥ 0 the
// deaths are gossip from that rank's abort, and it leaves cleanly in the
// same step: one lock covers both, so whoever sees the aborter gone sees
// the dead set it reported, and the reverse.
func (m *membership) markDead(qs []int, reason string, aborter int) (dead []int, aborterLeft bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if aborter >= 0 {
		aborterLeft = m.transition(aborter, peerLeft, "aborted to reform")
	}
	for _, q := range qs {
		if m.transition(q, peerDead, reason) {
			dead = append(dead, q)
		}
	}
	return dead, aborterLeft
}

// markLeft transitions q to left cleanly; same first-cause-wins contract.
func (m *membership) markLeft(q int, reason string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.transition(q, peerLeft, reason)
}

// transition moves q out of peerAlive and reports whether it did; the
// caller holds mu.
func (m *membership) transition(q, state int, reason string) bool {
	if m.states[q] != peerAlive {
		return false
	}
	m.states[q] = state
	m.reason[q] = reason
	close(m.gone[q])
	return true
}

// alive reports whether q is still a live peer.
func (m *membership) alive(q int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.states[q] == peerAlive
}

// errFor returns nil while q is alive, or the sentinel-wrapped cause of
// its departure.
func (m *membership) errFor(q int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch m.states[q] {
	case peerLeft:
		return fmt.Errorf("%w (%s)", ErrPeerLeft, m.reason[q])
	case peerDead:
		return fmt.Errorf("%w (%s)", ErrPeerDead, m.reason[q])
	}
	return nil
}

// deadRanks returns the ranks declared dead, ascending. Cleanly departed
// ranks are not included: they are survivors of somebody else's failure.
func (m *membership) deadRanks() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var dead []int
	for q, s := range m.states {
		if s == peerDead {
			dead = append(dead, q)
		}
	}
	return dead
}
