package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"mgdiffnet/internal/fem"
	"mgdiffnet/internal/field"
	"mgdiffnet/internal/tensor"
	"mgdiffnet/internal/unet"
)

// testNet builds a small trained-shaped network (random but deterministic
// weights are fine: serving only needs forwards).
func testNet(dim int) *unet.UNet {
	cfg := unet.DefaultConfig(dim)
	cfg.Depth = 2
	cfg.BaseFilters = 4
	cfg.Seed = 7
	return unet.New(cfg)
}

// reference computes the monolithic answer: a fresh single-sample forward
// on a private clone plus the same BC imposition the engine applies.
func reference(net *unet.UNet, w field.Omega, res int) []float64 {
	dim := net.Cfg.Dim
	var in *tensor.Tensor
	if dim == 2 {
		in = tensor.New(1, 1, res, res)
	} else {
		in = tensor.New(1, 1, res, res, res)
	}
	field.RasterInto(in.Data, w, dim, res)
	y := net.Forward(in, false)
	u := fem.NewEnergyLoss(dim).WithBC(y)
	out := make([]float64, len(u.Data))
	copy(out, u.Data)
	return out
}

func mustEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestEngineMatchesMonolithic(t *testing.T) {
	for _, dim := range []int{2, 3} {
		t.Run(fmt.Sprintf("dim%d", dim), func(t *testing.T) {
			net := testNet(dim)
			e := mustEngine(t, Config{Net: net, Replicas: 2, MaxBatch: 4, BatchWindow: time.Millisecond, WarmRes: []int{8}})
			ref := net.Clone()
			res := 8
			for _, w := range field.SampleOmegas(5) {
				got, err := e.Solve(context.Background(), w, res)
				if err != nil {
					t.Fatal(err)
				}
				want := reference(ref, w, res)
				if len(got.U) != len(want) {
					t.Fatalf("length %d, want %d", len(got.U), len(want))
				}
				for i := range want {
					if got.U[i] != want[i] {
						t.Fatalf("omega %v idx %d: got %v want %v (batch %d)", w, i, got.U[i], want[i], got.Batch)
					}
				}
			}
		})
	}
}

// TestEngineConcurrentBitIdentical is the race-hammer: many goroutines,
// mixed resolutions, every response asserted bit-identical to a fresh
// monolithic forward. Run under -race in CI.
func TestEngineConcurrentBitIdentical(t *testing.T) {
	net := testNet(2)
	e := mustEngine(t, Config{Net: net, Replicas: 3, MaxBatch: 4, BatchWindow: 500 * time.Microsecond})

	resolutions := []int{8, 16, 24}
	omegas := field.SampleOmegas(12)
	// Precompute references on a private clone (the engine never touches it).
	ref := net.Clone()
	want := map[Key][]float64{}
	for _, res := range resolutions {
		for _, w := range omegas {
			want[Key{Omega: w, Res: res}] = reference(ref, w, res)
		}
	}

	const goroutines = 10
	const perG = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				res := resolutions[(g+i)%len(resolutions)]
				w := omegas[(g*3+i)%len(omegas)]
				got, err := e.Solve(context.Background(), w, res)
				if err != nil {
					errs <- err
					return
				}
				exp := want[Key{Omega: w, Res: res}]
				for j := range exp {
					if got.U[j] != exp[j] {
						errs <- fmt.Errorf("goroutine %d: res %d omega %v idx %d: got %v want %v (cached=%v shared=%v batch=%d)",
							g, res, w, j, got.U[j], exp[j], got.Cached, got.Shared, got.Batch)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Requests != goroutines*perG {
		t.Fatalf("requests %d, want %d", st.Requests, goroutines*perG)
	}
	if st.Forwards == 0 {
		t.Fatal("no forward passes recorded")
	}
}

// TestCacheHitEqualsCold pins that a cache hit returns the same values as
// the cold miss that populated it, and that mutating a returned field
// cannot poison the cache.
func TestCacheHitEqualsCold(t *testing.T) {
	net := testNet(2)
	e := mustEngine(t, Config{Net: net, MaxBatch: 2, BatchWindow: time.Millisecond})
	w := field.Omega{0.4, -1.2, 0.9, 2.1}

	cold, err := e.Solve(context.Background(), w, 16)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("first solve reported a cache hit")
	}
	coldCopy := append([]float64(nil), cold.U...)
	for i := range cold.U {
		cold.U[i] = -999 // must not reach the cache
	}
	hit, err := e.Solve(context.Background(), w, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("second solve missed the cache")
	}
	for i := range coldCopy {
		if hit.U[i] != coldCopy[i] {
			t.Fatalf("idx %d: cache hit %v, cold miss %v", i, hit.U[i], coldCopy[i])
		}
	}
	if st := e.Stats(); st.CacheHits != 1 {
		t.Fatalf("cache hits %d, want 1", st.CacheHits)
	}
}

// TestSingleFlightDedup checks that identical concurrent queries share one
// computation when the cache is disabled (so dedup, not caching, answers).
func TestSingleFlightDedup(t *testing.T) {
	net := testNet(2)
	e := mustEngine(t, Config{Net: net, CacheSize: -1, MaxBatch: 4, BatchWindow: 5 * time.Millisecond})
	w := field.Omega{1.5, 0.2, -0.8, 0.3}

	const callers = 16
	results := make([]Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := e.Solve(context.Background(), w, 8)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		for j := range results[0].U {
			if results[i].U[j] != results[0].U[j] {
				t.Fatalf("caller %d diverges at %d", i, j)
			}
		}
	}
	// Sharers still own their fields: with no cache, only a flight's sole
	// waiter is handed the canonical slice itself.
	owner := map[*float64]int{}
	for i, r := range results {
		if j, ok := owner[&r.U[0]]; ok {
			t.Fatalf("callers %d and %d share one field", j, i)
		}
		owner[&r.U[0]] = i
	}
	st := e.Stats()
	if st.SharedInFlight == 0 {
		t.Fatal("expected at least one single-flight share")
	}
	if st.Forwards >= callers {
		t.Fatalf("%d forwards for %d identical queries; dedup did nothing", st.Forwards, callers)
	}
}

// TestSlabRouting forces large requests onto the slab-parallel path and
// checks the answer still matches the monolithic forward bit-for-bit
// (2D uses direct convolutions, so slab equality is exact).
func TestSlabRouting(t *testing.T) {
	net := testNet(2)
	e := mustEngine(t, Config{Net: net, SlabVoxels: 32 * 32, SlabWorkers: 2, MaxBatch: 2, BatchWindow: time.Millisecond})
	ref := net.Clone()
	w := field.Omega{-0.3, 0.7, 1.9, -2.2}

	got, err := e.Solve(context.Background(), w, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Slab {
		t.Fatal("32x32 request did not take the slab path")
	}
	want := reference(ref, w, 32)
	for i := range want {
		if got.U[i] != want[i] {
			t.Fatalf("slab idx %d: got %v want %v", i, got.U[i], want[i])
		}
	}
	// A small request must still take the batched path.
	small, err := e.Solve(context.Background(), w, 16)
	if err != nil {
		t.Fatal(err)
	}
	if small.Slab {
		t.Fatal("16x16 request took the slab path")
	}
	if st := e.Stats(); st.SlabRequests != 1 {
		t.Fatalf("slab requests %d, want 1", st.SlabRequests)
	}
}

// TestSlabAnswerOwnership pins that a slab pass's output becomes its
// flight's answer and is never reused: two slab solves return distinct
// backing arrays, an answer survives the next slab pass, and mutating
// returned answers leaves a later answer for the same ω — a cache hit, or
// a fresh slab pass with the cache off — bit-identical to the reference.
func TestSlabAnswerOwnership(t *testing.T) {
	net := testNet(2)
	ref := net.Clone()
	w1, w2 := field.Omega{0.8, -0.4, 1.3, 0.1}, field.Omega{-1.1, 0.6, -0.2, 2.4}
	want1 := reference(ref, w1, 32)
	for _, cacheSize := range []int{0, -1} {
		e := mustEngine(t, Config{Net: net, SlabVoxels: 32 * 32, SlabWorkers: 2, CacheSize: cacheSize, MaxBatch: 2, BatchWindow: time.Millisecond})
		a, err := e.Solve(context.Background(), w1, 32)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.Solve(context.Background(), w2, 32)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Slab || !b.Slab {
			t.Fatalf("cache %d: slab answers %v, %v; want both from the slab path", cacheSize, a.Slab, b.Slab)
		}
		if &a.U[0] == &b.U[0] {
			t.Fatalf("cache %d: two slab solves share one backing array", cacheSize)
		}
		for i := range want1 {
			if math.Float64bits(a.U[i]) != math.Float64bits(want1[i]) {
				t.Fatalf("cache %d: idx %d of the first answer is %v after the second pass, want %v", cacheSize, i, a.U[i], want1[i])
			}
		}
		for i := range a.U {
			a.U[i], b.U[i] = -999, -999
		}
		c, err := e.Solve(context.Background(), w1, 32)
		if err != nil {
			t.Fatal(err)
		}
		if cached := cacheSize >= 0; c.Cached != cached || c.Slab == cached {
			t.Fatalf("cache %d: repeat solve Cached %v Slab %v", cacheSize, c.Cached, c.Slab)
		}
		for i := range want1 {
			if math.Float64bits(c.U[i]) != math.Float64bits(want1[i]) {
				t.Fatalf("cache %d: idx %d of the repeat answer is %v, want %v", cacheSize, i, c.U[i], want1[i])
			}
		}
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Fatal("expected error for nil net")
	}
	net := testNet(2)
	e := mustEngine(t, Config{Net: net})
	if _, err := e.Solve(context.Background(), field.Omega{}, 13); err == nil {
		t.Fatal("expected error for invalid resolution")
	}
	if err := e.ValidateRes(13); err == nil {
		t.Fatal("ValidateRes accepted 13 for a min-input-size-4 network")
	}
}

// A non-finite ω or an oversized resolution is refused with a typed error
// before the engine keeps any state for it. A NaN key never equals itself,
// so a flight or a cache entry made for one could never be found or deleted.
func TestEngineRejectsInvalidQueries(t *testing.T) {
	e := mustEngine(t, Config{Net: testNet(3)})
	for _, q := range []Query{
		{Omega: field.Omega{math.NaN(), 0.2, 0.3, 0.4}, Res: 8},
		{Omega: field.Omega{0.1, math.Inf(1), 0.3, 0.4}, Res: 8},
		{Omega: field.Omega{0.1, 0.2, 0.3, math.Inf(-1)}, Res: 8},
		{Res: 516},
		{Res: 4096},
	} {
		for i := 0; i < 5; i++ {
			if _, err := e.SolveQuery(context.Background(), q); !errors.Is(err, ErrInvalidQuery) {
				t.Fatalf("query %+v: error %v, want ErrInvalidQuery", q, err)
			}
		}
	}
	e.mu.Lock()
	flights, cached := len(e.inflight), e.cache.len()
	e.mu.Unlock()
	if flights != 0 || cached != 0 {
		t.Fatalf("refused queries left %d flights and %d cache entries", flights, cached)
	}
	if st := e.Stats(); st.Requests != 0 || st.Forwards != 0 {
		t.Fatalf("refused queries were counted: %+v", st)
	}

	// 512³ is the largest field; in 2D the bound is on res² alike.
	e2 := mustEngine(t, Config{Net: testNet(2)})
	for _, c := range []struct {
		e   *Engine
		res int
		ok  bool
	}{{e, 512, true}, {e, 516, false}, {e2, 11584, true}, {e2, 11588, false}, {e2, 1 << 40, false}} {
		if err := c.e.ValidateRes(c.res); (err == nil) != c.ok {
			t.Errorf("%dD ValidateRes(%d) = %v, want ok %v", c.e.Dim(), c.res, err, c.ok)
		}
	}
}

func TestSolveBatchOrderAndDedup(t *testing.T) {
	net := testNet(2)
	e := mustEngine(t, Config{Net: net, MaxBatch: 4, BatchWindow: 2 * time.Millisecond})
	ref := net.Clone()
	ws := field.SampleOmegas(6)
	ws = append(ws, ws[0], ws[1]) // duplicates exercise cache/dedup
	rs, err := e.SolveBatch(context.Background(), ws, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(ws) {
		t.Fatalf("got %d results for %d queries", len(rs), len(ws))
	}
	for i, w := range ws {
		want := reference(ref, w, 8)
		for j := range want {
			if rs[i].U[j] != want[j] {
				t.Fatalf("query %d idx %d mismatch", i, j)
			}
		}
	}
}

func TestCloseRejectsNewWork(t *testing.T) {
	net := testNet(2)
	e, err := NewEngine(Config{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Solve(context.Background(), field.Omega{0.1, 0.2, 0.3, 0.4}, 8); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	if _, err := e.Solve(context.Background(), field.Omega{0.1, 0.2, 0.3, 0.4}, 8); err == nil {
		t.Fatal("expected error after Close")
	}
}

func TestLRUByteBudget(t *testing.T) {
	c := newLRUCache(100, 8*3) // room for three float64s total
	k := func(i int) Key { return Key{Res: i} }
	c.put(k(1), []float64{1})
	c.put(k(2), []float64{2, 2})
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("k1 evicted under budget")
	}
	c.put(k(3), []float64{3, 3}) // 5 floats pending: must evict to fit
	if c.bytes > 8*3 {
		t.Fatalf("cache holds %d bytes, budget 24", c.bytes)
	}
	// An entry larger than the whole budget is never cached.
	c.put(k(4), []float64{4, 4, 4, 4})
	if _, ok := c.get(k(4)); ok {
		t.Fatal("over-budget entry was cached")
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRUCache(2, 1<<20)
	k := func(i int) Key { return Key{Res: i} }
	c.put(k(1), []float64{1})
	c.put(k(2), []float64{2})
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("k1 evicted too early")
	}
	c.put(k(3), []float64{3}) // evicts k2 (k1 was just touched)
	if _, ok := c.get(k(2)); ok {
		t.Fatal("k2 should have been evicted")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("k1 lost")
	}
	if _, ok := c.get(k(3)); !ok {
		t.Fatal("k3 lost")
	}
	if c.len() != 2 {
		t.Fatalf("len %d, want 2", c.len())
	}
}
