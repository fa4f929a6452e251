package serve

import (
	"testing"
	"time"
)

// fixedNow gives the quota tests a deterministic clock.
var fixedNow = time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)

func TestQuotaLimiterBurstAndRefill(t *testing.T) {
	q := NewQuotaLimiter(QuotaConfig{RPS: 10, Burst: 3})
	now := fixedNow
	for i := 0; i < 3; i++ {
		if ok, _ := q.Allow("alice", now); !ok {
			t.Fatalf("burst request %d refused", i)
		}
	}
	ok, retry := q.Allow("alice", now)
	if ok {
		t.Fatal("4th back-to-back request admitted past burst")
	}
	if retry < time.Second {
		t.Fatalf("retry hint %v below the 1s floor", retry)
	}
	// Another client is unaffected.
	if ok, _ := q.Allow("bob", now); !ok {
		t.Fatal("independent client throttled")
	}
	// 100ms at 10 rps refills one token.
	if ok, _ := q.Allow("alice", now.Add(100*time.Millisecond)); !ok {
		t.Fatal("refilled token refused")
	}
	// A long quiet period refills to burst, not beyond.
	now = now.Add(time.Hour)
	for i := 0; i < 3; i++ {
		if ok, _ := q.Allow("alice", now); !ok {
			t.Fatalf("post-idle burst request %d refused", i)
		}
	}
	if ok, _ := q.Allow("alice", now); ok {
		t.Fatal("idle refill exceeded burst")
	}
	if got := q.Rejected(); got != 2 {
		t.Fatalf("rejected %d, want 2", got)
	}
}

func TestQuotaLimiterDisabledAndNil(t *testing.T) {
	if q := NewQuotaLimiter(QuotaConfig{RPS: 0}); q != nil {
		t.Fatal("RPS 0 should disable the limiter")
	}
	var q *QuotaLimiter
	if ok, _ := q.Allow("anyone", fixedNow); !ok {
		t.Fatal("nil limiter must admit")
	}
	if q.Rejected() != 0 {
		t.Fatal("nil limiter rejected something")
	}
}

func TestQuotaLimiterTableBound(t *testing.T) {
	q := NewQuotaLimiter(QuotaConfig{RPS: 1, Burst: 1, MaxClients: 2})
	now := fixedNow
	q.Allow("a", now)
	q.Allow("b", now)
	// Table full of active clients: unknown clients fail open rather
	// than evicting live quota state or growing without bound.
	if ok, _ := q.Allow("c", now); !ok {
		t.Fatal("table-full unknown client was throttled (must fail open)")
	}
	if len(q.buckets) != 2 {
		t.Fatalf("bucket table grew to %d past MaxClients 2", len(q.buckets))
	}
	// Once a bucket goes stale it is evicted and the newcomer is tracked.
	later := now.Add(time.Hour)
	if ok, _ := q.Allow("c", later); !ok {
		t.Fatal("newcomer refused after stale eviction")
	}
	if _, ok := q.buckets["c"]; !ok {
		t.Fatal("newcomer not tracked after eviction freed a slot")
	}
}

// TestQuotaAllowSteadyStateAllocs pins the hot-path contract: charging a
// known client's bucket allocates nothing.
func TestQuotaAllowSteadyStateAllocs(t *testing.T) {
	q := NewQuotaLimiter(QuotaConfig{RPS: 1e9, Burst: 1 << 30})
	now := fixedNow
	q.Allow("client", now) // create the bucket (the one cold allocation)
	if avg := testing.AllocsPerRun(1000, func() {
		now = now.Add(time.Microsecond)
		q.Allow("client", now)
	}); avg != 0 {
		t.Fatalf("QuotaLimiter.Allow allocates %.1f per request on the steady state", avg)
	}
}

// TestEWMASteadyStateAllocs pins the other hot-path contract: the
// latency estimator allocates nothing per sample.
func TestEWMASteadyStateAllocs(t *testing.T) {
	var w ewma
	if avg := testing.AllocsPerRun(1000, func() {
		w.observe(3 * time.Millisecond)
		_ = w.estimate()
	}); avg != 0 {
		t.Fatalf("ewma observe/estimate allocates %.1f per sample", avg)
	}
}

func TestEWMAConverges(t *testing.T) {
	var w ewma
	if w.estimate() != 0 {
		t.Fatal("unprimed EWMA must estimate 0 (admit-by-default)")
	}
	w.observe(100 * time.Millisecond)
	if w.estimate() != 100*time.Millisecond {
		t.Fatalf("first sample not adopted verbatim: %v", w.estimate())
	}
	for i := 0; i < 50; i++ {
		w.observe(10 * time.Millisecond)
	}
	if est := w.estimate(); est < 9*time.Millisecond || est > 12*time.Millisecond {
		t.Fatalf("EWMA failed to track the new regime: %v", est)
	}
}

func TestRetryAfterHint(t *testing.T) {
	if got := retryAfterHint(0); got != time.Second {
		t.Fatalf("floor: %v", got)
	}
	if got := retryAfterHint(2600 * time.Millisecond); got != 3*time.Second {
		t.Fatalf("rounding: %v", got)
	}
	// A client that waits the hint must find the estimated drain over.
	if got := retryAfterHint(1400 * time.Millisecond); got != 2*time.Second {
		t.Fatalf("rounding up: %v", got)
	}
}

func TestCoarserRes(t *testing.T) {
	net := testNet(2) // min input size 4
	e := mustEngine(t, Config{Net: net})
	if got := e.coarserRes(16); got != 8 {
		t.Fatalf("coarserRes(16) = %d, want 8", got)
	}
	if got := e.coarserRes(4); got != 0 {
		t.Fatalf("coarserRes(4) = %d, want 0 (nothing below the minimum)", got)
	}
}
