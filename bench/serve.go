package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mgdiffnet/internal/fem"
	"mgdiffnet/internal/field"
	"mgdiffnet/internal/serve"
	"mgdiffnet/internal/tensor"
	"mgdiffnet/internal/unet"
)

// serveConfig is a 2D serving workload against an in-process serve.Engine:
// an open-loop cruise phase at a fixed arrival rate, timed from each
// request's due time, then a closed-loop saturation phase.
type serveConfig struct {
	Res int
	Net unet.Config
	// CacheSize is the engine's result-cache capacity; -1 turns the cache off.
	CacheSize int
	// Catalogue is the number of distinct ω requests draw from by Zipf rank;
	// 0 makes every request's ω distinct.
	Catalogue int
	// Warmup requests are sent inside set-up so a cache is in steady state
	// when timing starts.
	Warmup int
	// CruiseRate is the open-loop arrival rate in requests per second, about
	// two fifths of what the engine sustained on distinct ω when the
	// benchmark was defined (bench/README.md has the derivation).
	CruiseRate float64
	// corrupt, set only by tests, alters a response before it is checked.
	corrupt func(req int, u []float64)
}

// What the two serving workloads share, besides the network.
const (
	serveReplicas    = 2
	serveMaxBatch    = 8
	serveBatchWindow = 2 * time.Millisecond
	// serveCruiseFrac is the share of the window the cruise phase takes.
	serveCruiseFrac = 0.6
	// serveClients is the number of closed-loop clients in the saturation
	// phase and in the warm-up.
	serveClients = 16
	// serveZipfS is the exponent of the catalogue's popularity law.
	serveZipfS = 1.1
)

func net2D() unet.Config {
	c := unet.DefaultConfig(2)
	c.Depth = 3
	c.BaseFilters = 8
	return c
}

var serveUnique2D = serveConfig{Res: 32, Net: net2D(), CacheSize: -1, CruiseRate: 138}

// serveZipf2D is the same engine, network, rate and phases with the cache on
// and requests drawn by popularity from a catalogue four times the cache.
var serveZipf2D = serveConfig{Res: 32, Net: net2D(), CacheSize: 64, Catalogue: 256, Warmup: 256, CruiseRate: 138}

// requestStream maps a request index to its input.
type requestStream struct {
	seed  int64
	draws int // the stream distinct ω are drawn from
	cat   []field.Omega
	z     zipf
}

func (c serveConfig) stream(seed int64) *requestStream {
	s := &requestStream{seed: seed, draws: streamOmega}
	if c.Catalogue > 0 {
		s.cat = omegas(seed, streamCatalogue, c.Catalogue)
		s.z = newZipf(c.Catalogue, serveZipfS)
	}
	return s
}

// at returns request i's ω and, for a catalogue stream, its catalogue index
// (-1 otherwise).
func (s *requestStream) at(i int) (field.Omega, int) {
	if s.cat == nil {
		return omegaAt(s.seed, s.draws, i), -1
	}
	k := s.z.rank(uniform(s.seed, streamZipf, i, 0))
	return s.cat[k], k
}

// reqObs is what the benchmark saw of one request.
type reqObs struct {
	lat    time.Duration // open loop: from the due time
	late   time.Duration // open loop: how late the generator fired
	cached bool
	failed bool
}

// responseChecker verifies responses: every one is well-formed, every
// response for a catalogue entry is bit-identical to the first one seen for
// it, and a thinned sample is kept for comparison with a fresh forward pass
// after the window.
type responseChecker struct {
	cfg    serveConfig
	mu     sync.Mutex
	first  map[int]uint64
	kept   []keptResponse
	stride int
	out    *outcome
}

type keptResponse struct {
	req int
	w   field.Omega
	u   []float64
}

// keepCap bounds the retained sample; when it fills, every other response is
// dropped and the stride doubles, so the sample spans the whole run.
const keepCap = 64

func newChecker(cfg serveConfig, out *outcome) *responseChecker {
	return &responseChecker{cfg: cfg, first: map[int]uint64{}, stride: 1, out: out}
}

func fieldHash(u []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range u {
		h = (h ^ math.Float64bits(v)) * 1099511628211
	}
	return h
}

// observe checks one response and reports whether it failed.
func (k *responseChecker) observe(req, key int, w field.Omega, r serve.Result, err error) bool {
	var hash uint64
	if err == nil {
		if k.cfg.corrupt != nil {
			k.cfg.corrupt(req, r.U)
		}
		if key >= 0 {
			hash = fieldHash(r.U) // outside the lock: clients must not queue behind each other's hashing
		}
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.out.attempted++
	switch {
	case err != nil:
		k.out.fail("request %d: %v", req, err)
		return true
	case r.Res != k.cfg.Res || len(r.U) != k.cfg.Res*k.cfg.Res || r.Degraded || r.Slab:
		k.out.fail("request %d: malformed result (res %d, %d values, degraded %v, slab %v)", req, r.Res, len(r.U), r.Degraded, r.Slab)
		return true
	case k.cfg.CacheSize < 0 && r.Cached:
		k.out.fail("request %d: cache hit with the cache off", req)
		return true
	}
	if key >= 0 {
		if first, seen := k.first[key]; !seen {
			k.first[key] = hash
		} else if first != hash {
			k.out.fail("request %d: response for catalogue entry %d differs from the first one", req, key)
			return true
		}
	}
	if req%k.stride == 0 {
		k.kept = append(k.kept, keptResponse{req: req, w: w, u: r.U})
		if len(k.kept) == keepCap {
			half := k.kept[:0]
			k.stride *= 2
			for _, s := range k.kept {
				if s.req%k.stride == 0 {
					half = append(half, s)
				}
			}
			k.kept = half
		}
	}
	return false
}

// verifyKept compares every retained response bit for bit with a fresh
// rasterization, forward pass and boundary imposition on the caller-owned
// network the engine was built from.
func (k *responseChecker) verifyKept(net *unet.UNet) int {
	loss := fem.NewEnergyLoss(2)
	in := tensor.New(1, 1, k.cfg.Res, k.cfg.Res)
	for _, s := range k.kept {
		field.RasterInto(in.Data, s.w, 2, k.cfg.Res)
		want := loss.WithBC(net.Forward(in, false))
		for i, v := range want.Data {
			if math.Float64bits(v) != math.Float64bits(s.u[i]) {
				k.out.fail("request %d: response differs from a fresh forward pass at value %d (%g vs %g)", s.req, i, s.u[i], v)
				break
			}
		}
	}
	return len(k.kept)
}

// servePhase drives requests at one engine.
type servePhase struct {
	cfg    serveConfig
	eng    *serve.Engine
	stream *requestStream
	chk    *responseChecker
	rec    *recorder
}

func (p *servePhase) solve(ctx context.Context, name string, req int) (serve.Result, bool) {
	w, key := p.stream.at(req)
	id := p.rec.begin(name, -1, int64(req))
	r, err := p.eng.Solve(ctx, w, p.cfg.Res)
	p.rec.end(id)
	return r, p.chk.observe(req, key, w, r, err)
}

// openLoop sends request base+i at sched[i] after the phase start whatever
// the engine's state, each from its own goroutine that blocks on the reply.
func (p *servePhase) openLoop(ctx context.Context, name string, base int, sched []time.Duration) []reqObs {
	obs := make([]reqObs, len(sched))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, due := range sched {
		dueAt := t0.Add(due)
		if d := time.Until(dueAt); d > 0 {
			time.Sleep(d)
		}
		obs[i].late = time.Since(dueAt)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, failed := p.solve(ctx, name, base+i)
			obs[i].lat = time.Since(dueAt)
			obs[i].cached = r.Cached
			obs[i].failed = failed
		}()
	}
	wg.Wait()
	return obs
}

// closedLoop runs serveClients clients, each sending its next request when
// the previous one returns, until the duration has passed. It returns the
// observations and the rate at which correct replies arrived.
func (p *servePhase) closedLoop(ctx context.Context, name string, base int, dur time.Duration) ([]reqObs, float64) {
	var next atomic.Int64
	per := make([][]reqObs, serveClients)
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(dur)
	for c := range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				req := base + int(next.Add(1)) - 1
				t := time.Now()
				r, failed := p.solve(ctx, name, req)
				per[c] = append(per[c], reqObs{lat: time.Since(t), cached: r.Cached, failed: failed})
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	var all []reqObs
	for _, o := range per {
		all = append(all, o...)
	}
	return all, float64(len(latencies(all))) / wall.Seconds()
}

// setUp builds the network and engine and sends the warm-up requests.
func (c serveConfig) setUp(ctx context.Context, seed int64, stream *requestStream) (*unet.UNet, *serve.Engine, error) {
	ncfg := c.Net
	ncfg.Seed = seed
	net := unet.New(ncfg)
	eng, err := serve.NewEngine(serve.Config{
		Net: net, Replicas: serveReplicas, MaxBatch: serveMaxBatch, BatchWindow: serveBatchWindow,
		CacheSize: c.CacheSize, SlabVoxels: -1, WarmRes: []int{c.Res},
	})
	if err != nil {
		return nil, nil, err
	}
	if c.Warmup > 0 {
		warm := newOutcome()
		p := &servePhase{cfg: c, eng: eng, stream: stream, chk: newChecker(c, warm)}
		var next atomic.Int64
		var wg sync.WaitGroup
		for range serveClients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					req := int(next.Add(1)) - 1
					if req >= c.Warmup {
						return
					}
					p.solve(ctx, "", req)
				}
			}()
		}
		wg.Wait()
		if warm.failed > 0 {
			eng.Close()
			return nil, nil, fmt.Errorf("warm-up: %s", warm.problems[0])
		}
	}
	return net, eng, nil
}

// serveSetups is how many times a serving run sets up; setup_s is the median.
const serveSetups = 5

func latencies(obs []reqObs) []float64 {
	out := make([]float64, 0, len(obs))
	for _, o := range obs {
		if !o.failed {
			out = append(out, millis(o.lat))
		}
	}
	return out
}

func (c serveConfig) run(seed int64, window time.Duration, traced bool) (*outcome, *recorder) {
	out := newOutcome()
	ctx := context.Background()
	stream := c.stream(seed)
	if traced {
		return out, c.runTraced(ctx, seed, window, stream, out)
	}
	var net *unet.UNet
	eng, setups, err := repeatSetUp(serveSetups, func() (eng *serve.Engine, err error) {
		net, eng, err = c.setUp(ctx, seed, stream)
		return eng, err
	})
	if err != nil {
		out.fail("set-up: %v", err)
		return out, nil
	}
	defer eng.Close()

	chk := newChecker(c, out)
	p := &servePhase{cfg: c, eng: eng, stream: stream, chk: chk}
	cruiseDur := time.Duration(serveCruiseFrac * float64(window))
	sched := poissonSchedule(seed, c.CruiseRate, cruiseDur)
	cruise := p.openLoop(ctx, "", c.Warmup, sched)
	sat, satRate := p.closedLoop(ctx, "", c.Warmup+len(sched), window-cruiseDur)
	checked := chk.verifyKept(net)

	lat := latencies(cruise)
	late := make([]float64, len(cruise))
	for i, o := range cruise {
		late[i] = millis(o.late)
	}
	out.set("setup_s", median(setups))
	out.set("ops_per_s", satRate)
	out.set("p50_ms", median(lat))
	out.set("p90_ms", percentile(lat, 90))
	out.set("peak_rss_mb", peakRSSMB())
	st := eng.Stats()
	fmt.Fprintf(logw, "serve: cruise %d requests (p50 %.3f p90 %.3f p95 %.3f p99 %.3f ms; generator late p99 %.3f ms), sat %d requests at %.1f/s, %d responses checked against a fresh forward, %d cache hits, %d shed\n",
		len(cruise), median(lat), percentile(lat, 90), percentile(lat, 95), percentile(lat, 99), percentile(late, 99),
		len(sat), satRate, checked, st.CacheHits, st.Shed)
	return out, nil
}
