// Command mgserve exposes a trained MGDiffNet model as an HTTP inference
// service built on the batched multi-replica engine in internal/serve:
// single-ω requests are coalesced into one forward pass while enough
// demand is in flight to fill a batch (a lone request runs at once),
// identical queries are deduplicated and cached, and very large fields
// route through the slab-parallel path.
//
// The server is overload-safe: request contexts propagate into the
// engine (a disconnected client detaches from its flight), a
// -request-timeout budget bounds every solve, per-client token-bucket
// quotas answer 429 + Retry-After, and load-shed work answers
// 503 + Retry-After — never a generic 500. A batch longer than the
// admission queue answers 400 before any query is built, and a body
// larger than that queue's worth of queries answers 413 unread.
//
// Endpoints:
//
//	POST /solve       {"omega":[4 floats],"res":64,"summary":false,"allow_degraded":false}
//	POST /solve-batch {"omegas":[[4 floats],...],"res":64,"summary":true}
//	GET  /stats       engine + server counters
//	GET  /healthz     liveness + model metadata
//	GET  /readyz      readiness (503 while degraded — load balancers drain, liveness stays green)
//	GET  /debug/pprof/ runtime profiles (net/http/pprof), only with -pprof; 404 otherwise
//
// Example:
//
//	mgserve -model model.bin -addr :8080 -replicas 4 -window 2ms -quota-rps 50
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mgdiffnet/internal/field"
	"mgdiffnet/internal/serve"
	"mgdiffnet/internal/unet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// windowRule describes the engine's batching rule for the startup line.
func windowRule(st serve.Stats) string {
	if st.BatchWindowMS <= 0 {
		return "greedy batching, no window"
	}
	return fmt.Sprintf("batch window %gms, opened only while demand could fill a batch", st.BatchWindowMS)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mgserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		model       = fs.String("model", "", "path to a model saved by mgtrain (required)")
		addr        = fs.String("addr", ":8080", "listen address")
		replicas    = fs.Int("replicas", 0, "network replicas (0 = auto)")
		maxBatch    = fs.Int("max-batch", 8, "max coalesced requests per forward pass")
		window      = fs.Duration("window", 2*time.Millisecond, "longest a partial batch waits for company, opened only while demand could fill a batch (<= 0 = never: greedy)")
		maxQueue    = fs.Int("max-queue", 0, "admission-queue bound; excess work answers 503 (0 = auto: 8*max-batch*replicas)")
		reqTimeout  = fs.Duration("request-timeout", 30*time.Second, "per-request solve budget propagated into the engine (0 = none)")
		quotaRPS    = fs.Float64("quota-rps", 0, "per-client sustained requests/second; over-quota answers 429 (0 = unlimited)")
		quotaBurst  = fs.Int("quota-burst", 0, "per-client burst size (0 = 2*quota-rps)")
		quotaHeader = fs.String("quota-header", "", "header identifying the client for quotas (empty = remote address)")
		cacheSize   = fs.Int("cache", 256, "LRU result-cache entries (negative disables)")
		cacheMB     = fs.Int("cache-mb", 256, "LRU result-cache payload budget in MB")
		slabVoxels  = fs.Int("slab-voxels", 1<<21, "route single requests with >= this many voxels to the slab-parallel path (negative disables)")
		slabWorkers = fs.Int("slab-workers", 2, "slab count of the spatial-inference path")
		warm        = fs.String("warm", "", "comma-separated resolutions to warm each replica at (e.g. 32,64)")
		pprofOn     = fs.Bool("pprof", false, "serve the runtime profiles (net/http/pprof) under /debug/pprof/")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *model == "" {
		fmt.Fprintln(stderr, "mgserve: -model is required")
		return 2
	}
	warmRes, err := parseResList(*warm)
	if err != nil {
		fmt.Fprintln(stderr, "mgserve:", err)
		return 2
	}
	net, err := unet.LoadFile(*model)
	if err != nil {
		fmt.Fprintln(stderr, "mgserve:", err)
		return 1
	}
	for _, r := range warmRes {
		if err := serve.ValidateRes(net, r); err != nil {
			fmt.Fprintln(stderr, "mgserve: -warm:", err)
			return 2
		}
	}
	eng, err := serve.NewEngine(serve.Config{
		Net:         net,
		Replicas:    *replicas,
		MaxBatch:    *maxBatch,
		BatchWindow: cmp.Or(*window, -1), // -window 0 is greedy; the engine reads 0 as its 2ms default
		MaxQueue:    *maxQueue,
		CacheSize:   *cacheSize,
		CacheMB:     *cacheMB,
		SlabVoxels:  *slabVoxels,
		SlabWorkers: *slabWorkers,
		WarmRes:     warmRes,
	})
	if err != nil {
		fmt.Fprintln(stderr, "mgserve:", err)
		return 1
	}
	defer eng.Close()

	opts := handlerOptions{
		requestTimeout: *reqTimeout,
		quota:          serve.NewQuotaLimiter(serve.QuotaConfig{RPS: *quotaRPS, Burst: *quotaBurst}),
		quotaHeader:    *quotaHeader,
		logf:           log.New(stderr, "mgserve: ", log.LstdFlags).Printf,
		pprof:          *pprofOn,
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: newHandler(eng, opts),
		// Slowloris guard: a client that trickles its header or body can
		// no longer pin a connection (and its handler goroutine) forever.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       1 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	st := eng.Stats()
	fmt.Fprintf(stdout, "mgserve: %dD model %s on %s (replicas %d, max batch %d, %s, queue %d, request timeout %v)\n",
		eng.Dim(), *model, *addr, st.Replicas, st.MaxBatch, windowRule(st), st.MaxQueue, *reqTimeout)

	select {
	case <-ctx.Done():
		// Graceful shutdown: stop accepting, drain in-flight HTTP, then
		// drain the engine (deferred Close).
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(stderr, "mgserve: shutdown:", err)
			return 1
		}
		fmt.Fprintln(stdout, "mgserve: clean shutdown")
		return 0
	case err := <-errc:
		fmt.Fprintln(stderr, "mgserve:", err)
		return 1
	}
}

func parseResList(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad resolution %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// solveRequest is the JSON body of /solve and (with Omegas) /solve-batch.
// bodyBytesPerQuery is the request body allowance per query: an ω vector
// of a few numbers in any JSON spelling, with room to spare.
const bodyBytesPerQuery = 1 << 10

type solveRequest struct {
	Omega   []float64   `json:"omega,omitempty"`
	Omegas  [][]float64 `json:"omegas,omitempty"`
	Res     int         `json:"res"`
	Summary bool        `json:"summary,omitempty"`
	// AllowDegraded opts in to a coarser-resolution answer (flagged
	// "degraded":true, "res" reporting the served resolution) when the
	// engine is shedding cold misses under sustained overload.
	AllowDegraded bool `json:"allow_degraded,omitempty"`
}

// solveResponse is one answered field. U is omitted in summary mode (the
// min/max/mean triple is always present, so load probes stay cheap).
type solveResponse struct {
	Res      int       `json:"res"`
	Dim      int       `json:"dim"`
	Cached   bool      `json:"cached"`
	Shared   bool      `json:"shared"`
	Slab     bool      `json:"slab"`
	Batch    int       `json:"batch"`
	Degraded bool      `json:"degraded"`
	Min      float64   `json:"min"`
	Max      float64   `json:"max"`
	Mean     float64   `json:"mean"`
	U        []float64 `json:"u,omitempty"`
}

// statsResponse is /stats: the engine counters plus server-side ones.
type statsResponse struct {
	serve.Stats
	QuotaRejected  uint64 `json:"quota_rejected"`
	EncodeFailures uint64 `json:"encode_failures"`
}

func toResponse(r serve.Result, summary bool) solveResponse {
	resp := solveResponse{
		Res: r.Res, Dim: r.Dim,
		Cached: r.Cached, Shared: r.Shared, Slab: r.Slab, Batch: r.Batch,
		Degraded: r.Degraded,
	}
	if len(r.U) > 0 {
		mn, mx, sum := r.U[0], r.U[0], 0.0
		for _, v := range r.U {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
			sum += v
		}
		resp.Min, resp.Max, resp.Mean = mn, mx, sum/float64(len(r.U))
	}
	if !summary {
		resp.U = r.U
	}
	return resp
}

func parseOmegaSlice(vals []float64) (field.Omega, error) {
	var w field.Omega
	if len(vals) != field.OmegaDim {
		return w, fmt.Errorf("omega needs %d values, got %d", field.OmegaDim, len(vals))
	}
	copy(w[:], vals)
	return w, nil
}

// handlerOptions carries the serving policy into newHandler, split from
// run so tests can drive the handler through httptest without a socket.
type handlerOptions struct {
	requestTimeout time.Duration
	quota          *serve.QuotaLimiter // nil = unlimited
	quotaHeader    string              // client key header; empty = remote host
	logf           func(format string, args ...any)
	pprof          bool // mount net/http/pprof under /debug/pprof/
}

// clientKey identifies the quota bucket for a request: the configured
// header when present, the remote host otherwise (the port changes per
// connection and would defeat the quota).
func clientKey(r *http.Request, header string) string {
	if header != "" {
		if v := r.Header.Get(header); v != "" {
			return v
		}
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// encodeLogger deduplicates encode-failure logging per connection
// (keyed by RemoteAddr, which pins one TCP connection): the first
// failure on a connection is logged, repeats — a disconnected client
// failing every chunk of a megavoxel response — are only counted. The
// table is bounded; at capacity it resets, which at worst re-logs one
// line per connection.
type encodeLogger struct {
	mu       sync.Mutex
	seen     map[string]struct{}
	failures uint64
}

const encodeLoggerCap = 256

// shouldLog records a failure on conn and reports whether to log it.
func (l *encodeLogger) shouldLog(conn string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failures++
	if l.seen == nil || len(l.seen) >= encodeLoggerCap {
		l.seen = map[string]struct{}{}
	}
	if _, ok := l.seen[conn]; ok {
		return false
	}
	l.seen[conn] = struct{}{}
	return true
}

func (l *encodeLogger) count() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failures
}

// newHandler builds the HTTP API over an engine.
func newHandler(eng *serve.Engine, opt handlerOptions) http.Handler {
	mux := http.NewServeMux()
	if opt.logf == nil {
		opt.logf = func(string, ...any) {}
	}
	encLog := &encodeLogger{}

	writeJSON := func(w http.ResponseWriter, r *http.Request, status int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		if err := json.NewEncoder(w).Encode(v); err != nil {
			// The response is already truncated on the wire (usually the
			// client hung up mid-body); surface it once per connection
			// instead of dropping it silently.
			if encLog.shouldLog(r.RemoteAddr) {
				opt.logf("response encode to %s failed: %v", r.RemoteAddr, err)
			}
		}
	}
	badRequest := func(w http.ResponseWriter, r *http.Request, err error) {
		writeJSON(w, r, http.StatusBadRequest, map[string]string{"error": err.Error()})
	}
	// writeError maps engine errors onto the overload-safe status
	// vocabulary: an invalid query is 400, shed work is 503 + Retry-After,
	// an exceeded request budget is 504, a vanished client gets nothing
	// (the connection is dead), and only a genuine engine failure is a 500.
	writeError := func(w http.ResponseWriter, r *http.Request, err error) {
		var ov *serve.OverloadError
		switch {
		case errors.As(err, &ov):
			w.Header().Set("Retry-After", strconv.Itoa(int(ov.RetryAfter/time.Second)))
			writeJSON(w, r, http.StatusServiceUnavailable, map[string]string{
				"error": "overloaded: " + ov.Reason, "retry_after": ov.RetryAfter.String(),
			})
		case errors.Is(err, serve.ErrInvalidQuery):
			badRequest(w, r, err)
		case errors.Is(err, context.DeadlineExceeded):
			writeJSON(w, r, http.StatusGatewayTimeout, map[string]string{"error": "deadline exceeded"})
		case errors.Is(err, context.Canceled):
			// Client disconnected; nothing to write, nobody to read it.
		default:
			writeJSON(w, r, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		}
	}
	// admit applies the per-client quota and the request-timeout budget;
	// it returns a derived context (and cancel) or ok=false having
	// already answered 429.
	admit := func(w http.ResponseWriter, r *http.Request) (context.Context, context.CancelFunc, bool) {
		if ok, retryAfter := opt.quota.Allow(clientKey(r, opt.quotaHeader), time.Now()); !ok {
			w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
			writeJSON(w, r, http.StatusTooManyRequests, map[string]string{
				"error": "quota exceeded", "retry_after": retryAfter.String(),
			})
			return nil, nil, false
		}
		ctx := r.Context()
		cancel := context.CancelFunc(func() {})
		if opt.requestTimeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, opt.requestTimeout)
		}
		return ctx, cancel, true
	}
	// A request carries at most the engine's admission bound of queries,
	// so that bound also sizes the largest body worth reading.
	maxQueries := eng.Stats().MaxQueue
	maxBody := int64(maxQueries+1) * bodyBytesPerQuery
	decode := func(w http.ResponseWriter, r *http.Request) (solveRequest, bool) {
		var req solveRequest
		if r.Method != http.MethodPost {
			writeJSON(w, r, http.StatusMethodNotAllowed, map[string]string{"error": "POST required"})
			return req, false
		}
		// Unmarshal takes the body as one JSON value, so anything but white
		// space after the request object makes it malformed.
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
		if err == nil {
			err = json.Unmarshal(body, &req)
		}
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeJSON(w, r, http.StatusRequestEntityTooLarge, map[string]string{
					"error": fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
				})
				return req, false
			}
			badRequest(w, r, fmt.Errorf("bad JSON: %w", err))
			return req, false
		}
		if err := eng.ValidateRes(req.Res); err != nil {
			badRequest(w, r, err)
			return req, false
		}
		return req, true
	}

	mux.HandleFunc("/solve", func(w http.ResponseWriter, r *http.Request) {
		req, ok := decode(w, r)
		if !ok {
			return
		}
		omega, err := parseOmegaSlice(req.Omega)
		if err != nil {
			badRequest(w, r, err)
			return
		}
		ctx, cancel, ok := admit(w, r)
		if !ok {
			return
		}
		defer cancel()
		res, err := eng.SolveQuery(ctx, serve.Query{Omega: omega, Res: req.Res, AllowDegraded: req.AllowDegraded})
		if err != nil {
			writeError(w, r, err)
			return
		}
		writeJSON(w, r, http.StatusOK, toResponse(res, req.Summary))
	})

	mux.HandleFunc("/solve-batch", func(w http.ResponseWriter, r *http.Request) {
		req, ok := decode(w, r)
		if !ok {
			return
		}
		if len(req.Omegas) == 0 {
			badRequest(w, r, fmt.Errorf("omegas is required"))
			return
		}
		if len(req.Omegas) > maxQueries {
			badRequest(w, r, fmt.Errorf("omegas has %d entries, more than the admission bound %d", len(req.Omegas), maxQueries))
			return
		}
		qs := make([]serve.Query, len(req.Omegas))
		for i, vals := range req.Omegas {
			omega, err := parseOmegaSlice(vals)
			if err != nil {
				badRequest(w, r, fmt.Errorf("omegas[%d]: %w", i, err))
				return
			}
			qs[i] = serve.Query{Omega: omega, Res: req.Res, AllowDegraded: req.AllowDegraded}
		}
		ctx, cancel, ok := admit(w, r)
		if !ok {
			return
		}
		defer cancel()
		results, err := eng.SolveQueries(ctx, qs)
		if err != nil {
			writeError(w, r, err)
			return
		}
		out := make([]solveResponse, len(results))
		for i, res := range results {
			out[i] = toResponse(res, req.Summary)
		}
		writeJSON(w, r, http.StatusOK, map[string]any{"results": out})
	})

	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, r, http.StatusOK, statsResponse{
			Stats:          eng.Stats(),
			QuotaRejected:  opt.quota.Rejected(),
			EncodeFailures: encLog.count(),
		})
	})

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, r, http.StatusOK, map[string]any{"ok": true, "dim": eng.Dim()})
	})

	// Readiness is distinct from liveness: a degraded engine is alive
	// (cache hits still answer) but should be drained by the load
	// balancer until the saturation score recovers.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		st := eng.Stats()
		if st.DegradedMode {
			writeJSON(w, r, http.StatusServiceUnavailable, map[string]any{
				"ready": false, "reason": "degraded", "queue_depth": st.QueueDepth,
			})
			return
		}
		writeJSON(w, r, http.StatusOK, map[string]any{"ready": true, "queue_depth": st.QueueDepth})
	})

	if opt.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}
