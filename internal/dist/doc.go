// Package dist provides the distributed-training substrate of the
// reproduction: a point-to-point Transport abstraction with an in-process
// channel implementation and a wire implementation (TCPTransport:
// length-prefixed frames over a persistent full mesh, heartbeat failure
// detection, bounded send queues), bandwidth-optimal ring allreduce (plus
// the naive all-to-all baseline it is benchmarked against), a
// data-parallel ParallelTrainer whose goroutine workers stand in for the
// paper's MPI ranks — or, given an external Transport, one rank of a
// multi-process world — and slab-decomposed model-parallel inference whose
// halos are copied from the input. Both transports share one receive side
// (mailbox: per-peer in-order queues, a buffer free list, length-checked
// delivery), and TCPTransport writes a peer off in one place, declareDead,
// whether a read failed, a write failed or an abort gossiped the death.
// The membership layer turns every
// failure into a timely error (never a hang) and lets survivors agree on a
// shrunken world and resume from the last checkpoint (elastic fault
// tolerance); the tests exercise it on loopback TCP worlds
// (NewLocalTCPWorld), where TCPTransport.Terminate is a killed rank.
// Each replica of a ParallelTrainer is a core.Trainer — the one
// implementation of the training step, Adapt and the checkpoint encoding —
// plus a communicator; dist adds only the sharded loop and the overlapped
// allreduce. ParallelTrainer trains at a per-epoch resolution and
// implements core.EpochBackend, so core.RunSchedule drives every multigrid
// strategy data-parallel, with checkpoint/resume through that encoding.
//
// The paper (§3.2) trains on megavoxel domains by sharding each global
// mini-batch across devices, computing local gradients of the variational
// loss, and averaging them with an allreduce before identical optimizer
// steps — which keeps every replica bit-for-bit synchronized (Eq. 15's
// worker-count independence). ParallelTrainer reproduces exactly that
// structure at laptop scale.
package dist
