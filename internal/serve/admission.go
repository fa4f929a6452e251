package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrOverloaded is the typed load-shedding error: the engine refused new
// work because the admission queue is full, because the estimated wait
// already exceeds the request's deadline, or because degraded mode sheds
// cold misses. Callers match it with errors.Is and should retry after the
// hint carried by the wrapping OverloadError — mgserve turns it into
// 503 + Retry-After, never a 500.
var ErrOverloaded = errors.New("serve: overloaded")

// OverloadError is the concrete shed error: a reason for operators and a
// retry hint for clients. It unwraps to ErrOverloaded.
type OverloadError struct {
	// Reason is a short operator-facing cause: "queue full",
	// "deadline unmeetable", "degraded".
	Reason string
	// RetryAfter estimates when capacity should free up (the admission
	// queue's estimated drain time, floored at one second).
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: overloaded (%s), retry after %v", e.Reason, e.RetryAfter)
}

func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// retryAfterHint rounds an estimated wait up to whole seconds with a
// one-second floor, the granularity of the HTTP Retry-After header.
func retryAfterHint(wait time.Duration) time.Duration {
	if wait <= time.Second {
		return time.Second
	}
	return wait.Round(time.Second)
}

// ewma tracks an exponentially weighted moving average of batch latency
// for one resolution. The admission path reads it to estimate how long a
// newly admitted request would wait; the dispatch path feeds it one
// sample per completed forward. Guarded by Engine.mu.
type ewma struct {
	value  float64 // nanoseconds per forward pass at this resolution
	primed bool
}

// ewmaAlpha weights new samples. 0.3 converges within a few batches
// while still smoothing over scheduler noise.
const ewmaAlpha = 0.3

// observe folds one batch-latency sample in.
//
//mglint:hotpath
func (w *ewma) observe(d time.Duration) {
	s := float64(d)
	if !w.primed {
		w.value = s
		w.primed = true
		return
	}
	w.value += ewmaAlpha * (s - w.value)
}

// estimate returns the smoothed per-forward latency, or 0 before the
// first sample (no estimate ⇒ admit; shedding on a guess would refuse
// the very traffic that builds the estimate).
//
//mglint:hotpath
func (w *ewma) estimate() time.Duration {
	if !w.primed {
		return 0
	}
	return time.Duration(w.value)
}

// breaker is a consecutive-failure circuit breaker for the slab path.
// While open, slab-eligible requests route to the batched path instead
// of risking another failure; after the cooldown one probe is let
// through (half-open) and a success closes it. Guarded by Engine.mu.
type breaker struct {
	failures  int
	threshold int
	cooldown  time.Duration
	openUntil time.Time
	probing   bool
}

const (
	breakerThreshold = 3
	breakerCooldown  = 5 * time.Second
)

// allow reports whether the protected path may run now.
//
//mglint:hotpath
func (b *breaker) allow(now time.Time) bool {
	if b.failures < b.threshold {
		return true
	}
	if now.Before(b.openUntil) {
		return false
	}
	if b.probing {
		return false // one half-open probe at a time
	}
	b.probing = true
	return true
}

// success closes the breaker.
func (b *breaker) success() {
	b.failures = 0
	b.probing = false
}

// failure records one more consecutive failure and (re)opens the
// breaker once the threshold is reached.
func (b *breaker) failure(now time.Time) {
	b.failures++
	b.probing = false
	if b.failures >= b.threshold {
		b.openUntil = now.Add(b.cooldown)
	}
}

// tripped reports whether the breaker is currently refusing traffic.
func (b *breaker) tripped(now time.Time) bool {
	return b.failures >= b.threshold && now.Before(b.openUntil)
}

// QuotaConfig parameterizes a QuotaLimiter.
type QuotaConfig struct {
	// RPS is the per-client sustained refill rate in requests per second.
	// Zero or negative disables the limiter (NewQuotaLimiter returns nil).
	RPS float64
	// Burst is the bucket capacity — how many requests a quiet client may
	// issue back to back. Zero defaults to max(1, 2·RPS).
	Burst int
	// MaxClients caps the bucket table so an address-spoofing flood
	// cannot grow it without bound. When the table is full and no stale
	// bucket can be evicted, unknown clients are admitted unthrottled
	// (fail open: quotas protect capacity, they are not an auth boundary).
	// Zero defaults to 4096.
	MaxClients int
}

// QuotaLimiter enforces per-client token-bucket quotas. One bucket per
// client key (an API-key header or the remote address); Allow is the
// whole API. Safe for concurrent use.
type QuotaLimiter struct {
	cfg QuotaConfig

	mu       sync.Mutex
	buckets  map[string]*tokenBucket
	rejected uint64
}

// tokenBucket is one client's refillable budget.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// NewQuotaLimiter builds a limiter, or returns nil when cfg.RPS is zero
// or negative (a nil limiter admits everything).
func NewQuotaLimiter(cfg QuotaConfig) *QuotaLimiter {
	if cfg.RPS <= 0 {
		return nil
	}
	if cfg.Burst <= 0 {
		cfg.Burst = int(2 * cfg.RPS)
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	if cfg.MaxClients <= 0 {
		cfg.MaxClients = 4096
	}
	return &QuotaLimiter{cfg: cfg, buckets: map[string]*tokenBucket{}}
}

// Allow charges one request to key's bucket. It returns ok=false with a
// Retry-After hint when the bucket is empty. A nil limiter always admits.
// The steady state for a known client is a map lookup plus float math —
// no allocation per request.
//
//mglint:hotpath
func (q *QuotaLimiter) Allow(key string, now time.Time) (ok bool, retryAfter time.Duration) {
	if q == nil {
		return true, 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	b, found := q.buckets[key]
	if !found {
		if len(q.buckets) >= q.cfg.MaxClients && !q.evictStaleLocked(now) {
			return true, 0 // table full of active clients: fail open
		}
		//mglint:ignore hotalloc one bucket per first-seen client, reused for every later request from that client
		b = &tokenBucket{tokens: float64(q.cfg.Burst), last: now}
		q.buckets[key] = b
	}
	elapsed := now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens += elapsed * q.cfg.RPS
		if max := float64(q.cfg.Burst); b.tokens > max {
			b.tokens = max
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	q.rejected++
	deficit := 1 - b.tokens
	return false, retryAfterHint(time.Duration(deficit / q.cfg.RPS * float64(time.Second)))
}

// evictStaleLocked drops buckets idle long enough to have refilled to
// burst anyway (forgetting them loses no state). Reports whether at
// least one slot was freed.
func (q *QuotaLimiter) evictStaleLocked(now time.Time) bool {
	idle := time.Duration(float64(q.cfg.Burst)/q.cfg.RPS*float64(time.Second)) + time.Minute
	freed := false
	for k, b := range q.buckets {
		if now.Sub(b.last) > idle {
			delete(q.buckets, k)
			freed = true
		}
	}
	return freed
}

// Rejected returns the number of requests refused so far.
func (q *QuotaLimiter) Rejected() uint64 {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.rejected
}

// admitLocked decides whether new work for res may enter the engine.
// Callers hold e.mu. It sheds when the queue is at capacity or when the
// EWMA-estimated wait already exceeds the caller's deadline budget —
// failing fast is strictly better than burning a replica forward on an
// answer the client will never read. The admit path allocates only on
// the (cold, early-exit) shed branches.
//
//mglint:hotpath
func (e *Engine) admitLocked(deadline time.Time, hasDeadline bool, res int, now time.Time) error {
	if e.pending >= e.cfg.MaxQueue {
		e.shedStats.shed++
		return &OverloadError{Reason: "queue full", RetryAfter: retryAfterHint(e.estimatedWaitLocked(res))}
	}
	if hasDeadline {
		if est := e.estimatedWaitLocked(res); est > 0 && deadline.Sub(now) < est {
			e.shedStats.shed++
			e.shedStats.deadlineSheds++
			return &OverloadError{Reason: "deadline unmeetable", RetryAfter: retryAfterHint(est)}
		}
	}
	return nil
}

// estimatedWaitLocked estimates how long a request admitted now would
// wait for its forward: the batches queued ahead of it, spread across the
// replica pool, each costing the EWMA batch latency at this resolution.
// Returns 0 with no latency sample yet. Callers hold e.mu.
//
//mglint:hotpath
func (e *Engine) estimatedWaitLocked(res int) time.Duration {
	w, ok := e.lat[res]
	if !ok {
		return 0
	}
	per := w.estimate()
	if per == 0 {
		return 0
	}
	batches := (e.pending + e.cfg.MaxBatch) / e.cfg.MaxBatch // ceil((pending+1)/MaxBatch)
	rounds := (batches + e.cfg.Replicas - 1) / e.cfg.Replicas
	return time.Duration(rounds) * per
}

// observeLatencyLocked feeds one completed forward's latency into the
// per-resolution EWMA. Callers hold e.mu.
func (e *Engine) observeLatencyLocked(res int, d time.Duration) {
	w, ok := e.lat[res]
	if !ok {
		w = &ewma{}
		e.lat[res] = w
	}
	w.observe(d)
}

// Degraded-mode hysteresis: the saturation score is an EWMA of admission
// queue occupancy, updated on every admission attempt and every finished
// flight. Sustained occupancy above degradedEnter flips the engine into
// degraded mode; it recovers below degradedExit. The gap prevents mode
// flapping at the boundary.
const (
	saturationAlpha = 0.1
	degradedEnter   = 0.75
	degradedExit    = 0.25
)

// observeLoadLocked updates the saturation score and the degraded-mode
// gauge from current queue occupancy. Callers hold e.mu.
//
//mglint:hotpath
func (e *Engine) observeLoadLocked() {
	occ := float64(e.pending) / float64(e.cfg.MaxQueue)
	e.satScore += saturationAlpha * (occ - e.satScore)
	if !e.degraded && e.satScore >= degradedEnter {
		e.degraded = true
	} else if e.degraded && e.satScore <= degradedExit {
		e.degraded = false
	}
}

// degradedLocked reports whether the engine is in degraded mode (or
// pinned there by the fault injector). Callers hold e.mu.
func (e *Engine) degradedLocked() bool {
	if e.faults != nil && e.faults.cfg.ForceDegraded {
		return true
	}
	return e.degraded
}

// coarserRes returns the largest valid resolution strictly below res
// (halving until the network accepts it), or 0 if none exists. Degraded
// mode serves opt-in requests at this resolution: a coarse answer now
// beats a shed and costs 4–8× less compute.
func (e *Engine) coarserRes(res int) int {
	for r := res / 2; r >= e.meta.MinInputSize(); r /= 2 {
		if e.meta.ValidateRes(r) == nil {
			return r
		}
	}
	return 0
}
