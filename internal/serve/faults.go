package serve

import (
	rand "math/rand/v2"
	"sync"
	"time"
)

// Faults drives deterministic fault injection inside an Engine: the
// schedule is a pure function of Seed and the operation sequence, so an
// overload failure mode reproduces exactly run after run. It exists for
// the chaos/soak and overload tests — production configs leave
// Config.Faults nil, which compiles every hook down to a nil check.
type Faults struct {
	// Seed fixes the injector's RNG.
	Seed int64
	// SlowReplicaProb is the probability a batched forward is delayed by
	// ReplicaDelay before running — a replica that suddenly runs slow
	// (page cache miss, CPU contention, noisy neighbor).
	SlowReplicaProb float64
	ReplicaDelay    time.Duration
	// StuckSlabProb is the probability the slab path stalls for
	// StuckDelay before running — a stuck slab worker.
	StuckSlabProb float64
	StuckDelay    time.Duration
	// ForceDegraded pins the engine in degraded mode regardless of load,
	// so degraded-path behavior is testable without a real flood.
	ForceDegraded bool
}

// faultState is the engine-owned injector: config plus a seeded RNG.
type faultState struct {
	cfg Faults

	mu  sync.Mutex
	rng *rand.Rand
}

func newFaultState(cfg Faults) *faultState {
	return &faultState{
		cfg: cfg,
		rng: rand.New(rand.NewPCG(uint64(cfg.Seed), uint64(cfg.Seed)^0x9e3779b97f4a7c15)),
	}
}

// draw consumes one RNG sample under the lock.
func (f *faultState) draw() float64 {
	f.mu.Lock()
	v := f.rng.Float64()
	f.mu.Unlock()
	return v
}

// beforeBatch injects the slow-replica delay. Called by runBatch just
// before the forward pass; a nil receiver is a no-op.
func (f *faultState) beforeBatch() {
	if f == nil || f.cfg.SlowReplicaProb <= 0 || f.cfg.ReplicaDelay <= 0 {
		return
	}
	if f.draw() < f.cfg.SlowReplicaProb {
		time.Sleep(f.cfg.ReplicaDelay)
	}
}

// beforeSlab injects the stuck-slab-worker delay. Called by runSlab
// before the spatial-inference pass; a nil receiver is a no-op.
func (f *faultState) beforeSlab() {
	if f == nil || f.cfg.StuckSlabProb <= 0 || f.cfg.StuckDelay <= 0 {
		return
	}
	if f.draw() < f.cfg.StuckSlabProb {
		time.Sleep(f.cfg.StuckDelay)
	}
}
