package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mgdiffnet/internal/serve"
	"mgdiffnet/internal/unet"
)

func testEngine(t testing.TB, cfg serve.Config) *serve.Engine {
	t.Helper()
	ucfg := unet.DefaultConfig(2)
	ucfg.Depth = 2
	ucfg.BaseFilters = 4
	cfg.Net = unet.New(ucfg)
	if cfg.Replicas == 0 {
		cfg.Replicas = 2
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 4
	}
	if cfg.BatchWindow == 0 {
		cfg.BatchWindow = time.Millisecond
	}
	eng, err := serve.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

func testHandler(t *testing.T) http.Handler {
	t.Helper()
	return newHandler(testEngine(t, serve.Config{}), handlerOptions{})
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewBufferString(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestSolveEndpoint(t *testing.T) {
	h := testHandler(t)
	rec := post(t, h, "/solve", `{"omega":[0.3,1.5,0.1,-1.2],"res":16}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp solveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Res != 16 || resp.Dim != 2 || len(resp.U) != 16*16 {
		t.Fatalf("bad response: res %d dim %d len(u) %d", resp.Res, resp.Dim, len(resp.U))
	}
	// Dirichlet left edge is 1 by construction; spot-check BC imposition.
	if resp.U[0] != 1 {
		t.Fatalf("u[0] = %v, want the Dirichlet value 1", resp.U[0])
	}

	// Summary mode keeps the stats but drops the field payload.
	rec = post(t, h, "/solve", `{"omega":[0.3,1.5,0.1,-1.2],"res":16,"summary":true}`)
	resp = solveResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.U) != 0 || resp.Max == 0 {
		t.Fatalf("summary response kept u (%d values) or lost stats (max %v)", len(resp.U), resp.Max)
	}
	if !resp.Cached {
		t.Fatal("identical repeat query missed the cache")
	}
}

func TestSolveBatchEndpoint(t *testing.T) {
	h := testHandler(t)
	rec := post(t, h, "/solve-batch", `{"omegas":[[0.1,0.2,0.3,0.4],[1,2,-1,-2]],"res":8,"summary":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Results []solveResponse `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(resp.Results))
	}
}

// A batch longer than the engine's admission bound is refused before any
// query is built, and a body larger than that bound's allowance is refused
// unread.
func TestSolveBatchBoundedByAdmission(t *testing.T) {
	h := newHandler(testEngine(t, serve.Config{MaxQueue: 2, CacheSize: -1}), handlerOptions{})
	rec := post(t, h, "/solve-batch", `{"omegas":[[0.1,0.2,0.3,0.4],[1,2,-1,-2],[0.5,0.5,0.5,0.5]],"res":8,"summary":true}`)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "admission bound 2") {
		t.Fatalf("3-ω batch against MaxQueue 2: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec := post(t, h, "/solve-batch", `{"omegas":[[0.1,0.2,0.3,0.4],[1,2,-1,-2]],"res":8,"summary":true}`); rec.Code != http.StatusOK {
		t.Fatalf("2-ω batch against MaxQueue 2: status %d: %s", rec.Code, rec.Body.String())
	}
	big := `{"omega":[0.1,0.2,0.3,0.4` + strings.Repeat(" ", 3*bodyBytesPerQuery) + `],"res":8}`
	for _, path := range []string{"/solve", "/solve-batch"} {
		if rec := post(t, h, path, big); rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with a %d-byte body: status %d: %s", path, len(big), rec.Code, rec.Body.String())
		}
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	h := testHandler(t)
	cases := []struct{ path, body string }{
		{"/solve", `{"omega":[0.1,0.2],"res":16}`},         // wrong ω arity
		{"/solve", `{"omega":[0.1,0.2,0.3,0.4],"res":13}`}, // bad granularity
		{"/solve", `not json`},
		{"/solve-batch", `{"omegas":[],"res":16}`},
		{"/solve-batch", `{"omegas":[[1,2,3]],"res":16}`},
	}
	for _, c := range cases {
		if rec := post(t, h, c.path, c.body); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s %q: status %d, want 400", c.path, c.body, rec.Code)
		}
	}
	// More than 512³ voxels: refused before anything is allocated.
	ucfg := unet.DefaultConfig(3)
	ucfg.Depth, ucfg.BaseFilters = 2, 2
	eng3, err := serve.NewEngine(serve.Config{Net: unet.New(ucfg), Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng3.Close)
	h3 := newHandler(eng3, handlerOptions{})
	for _, c := range []struct {
		h          http.Handler
		path, body string
	}{
		{h, "/solve", `{"omega":[0.1,0.2,0.3,0.4],"res":16384}`},
		{h, "/solve-batch", `{"omegas":[[0.1,0.2,0.3,0.4]],"res":16384}`},
		{h3, "/solve", `{"omega":[0.1,0.2,0.3,0.4],"res":4096}`},
		{h3, "/solve", `{"omega":[0.1,0.2,0.3,0.4],"res":516}`},
		{h3, "/solve-batch", `{"omegas":[[0.1,0.2,0.3,0.4]],"res":1024}`},
	} {
		if rec := post(t, c.h, c.path, c.body); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s %q: status %d, want 400", c.path, c.body, rec.Code)
		}
	}
	// GET on a POST endpoint.
	req := httptest.NewRequest(http.MethodGet, "/solve", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /solve: status %d, want 405", rec.Code)
	}
}

func TestStatsAndHealth(t *testing.T) {
	h := testHandler(t)
	post(t, h, "/solve", `{"omega":[0.3,1.5,0.1,-1.2],"res":8}`)
	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	// The lone request on an idle engine launched at once.
	if body := rec.Body.String(); rec.Code != http.StatusOK || !strings.Contains(body, `"requests":1`) ||
		!strings.Contains(body, `"launched_at_once":1`) || !strings.Contains(body, `"launched_after_window":0`) {
		t.Fatalf("stats: %d %s", rec.Code, body)
	}
	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok":true`) {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body.String())
	}
}

func TestRunFlagValidation(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{}, &out, &errb); code != 2 {
		t.Fatalf("missing -model: code %d, want 2", code)
	}
	if code := run([]string{"-model", "x.bin", "-warm", "abc"}, &out, &errb); code != 2 {
		t.Fatalf("bad -warm: code %d, want 2", code)
	}
	if code := run([]string{"-model", "/nonexistent/model.bin"}, &out, &errb); code != 1 {
		t.Fatalf("unreadable model: code %d, want 1", code)
	}
}

func TestParseResList(t *testing.T) {
	got, err := parseResList(" 16, 32 ")
	if err != nil || len(got) != 2 || got[0] != 16 || got[1] != 32 {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := parseResList("16,x"); err == nil {
		t.Fatal("expected error")
	}
	if got, err := parseResList(""); err != nil || got != nil {
		t.Fatalf("empty list: %v, %v", got, err)
	}
}

// TestQuotaRejected429 pins the per-client quota surface: over-quota
// requests answer 429 with a Retry-After header and a JSON error, and
// the /stats counter records them.
func TestQuotaRejected429(t *testing.T) {
	eng := testEngine(t, serve.Config{})
	h := newHandler(eng, handlerOptions{
		quota:       serve.NewQuotaLimiter(serve.QuotaConfig{RPS: 0.1, Burst: 1}),
		quotaHeader: "X-API-Key",
	})
	body := `{"omega":[0.3,1.5,0.1,-1.2],"res":8,"summary":true}`
	mk := func(key string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewBufferString(body))
		req.Header.Set("X-API-Key", key)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	if rec := mk("alice"); rec.Code != http.StatusOK {
		t.Fatalf("first request: %d %s", rec.Code, rec.Body.String())
	}
	rec := mk("alice") // burst 1, refill 0.1 rps: immediately over quota
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota request: %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if !strings.Contains(rec.Body.String(), "quota") {
		t.Fatalf("429 body: %s", rec.Body.String())
	}
	// A different client key is unaffected.
	if rec := mk("bob"); rec.Code != http.StatusOK {
		t.Fatalf("independent client: %d", rec.Code)
	}
	// /stats surfaces the rejection counter.
	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	srec := httptest.NewRecorder()
	h.ServeHTTP(srec, req)
	if !strings.Contains(srec.Body.String(), `"quota_rejected":1`) {
		t.Fatalf("stats: %s", srec.Body.String())
	}
}

// TestOverload503 pins the shedding surface: work refused by the
// engine's admission queue answers 503 + Retry-After — never a 500.
func TestOverload503(t *testing.T) {
	eng := testEngine(t, serve.Config{
		Replicas: 1, MaxBatch: 1, MaxQueue: 1, CacheSize: -1,
		Faults: &serve.Faults{Seed: 1, SlowReplicaProb: 1, ReplicaDelay: 30 * time.Millisecond},
	})
	h := newHandler(eng, handlerOptions{})
	const n = 20
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"omega":[0.%d,1.5,0.1,-1.2],"res":8,"summary":true}`, i)
			rec := post(t, h, "/solve", body)
			codes[i] = rec.Code
			if rec.Code == http.StatusServiceUnavailable && rec.Header().Get("Retry-After") == "" {
				t.Error("503 without Retry-After")
			}
		}(i)
	}
	wg.Wait()
	ok, shed := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			shed++
		default:
			t.Fatalf("unexpected status %d under overload (want only 200/503)", c)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("flood produced %d OK / %d shed; want both nonzero", ok, shed)
	}
}

// TestRequestTimeout504 pins the -request-timeout budget: a solve that
// cannot finish inside it answers 504.
func TestRequestTimeout504(t *testing.T) {
	eng := testEngine(t, serve.Config{
		Replicas: 1, MaxBatch: 1, CacheSize: -1,
		Faults: &serve.Faults{Seed: 2, SlowReplicaProb: 1, ReplicaDelay: 200 * time.Millisecond},
	})
	h := newHandler(eng, handlerOptions{requestTimeout: 20 * time.Millisecond})
	rec := post(t, h, "/solve", `{"omega":[0.3,1.5,0.1,-1.2],"res":8}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.String())
	}
}

// TestClientDisconnectWritesNothing pins the canceled-client path: the
// handler returns without attempting a response body (and without
// surfacing a 500).
func TestClientDisconnectWritesNothing(t *testing.T) {
	eng := testEngine(t, serve.Config{
		Replicas: 1, MaxBatch: 1, CacheSize: -1,
		Faults: &serve.Faults{Seed: 3, SlowReplicaProb: 1, ReplicaDelay: 100 * time.Millisecond},
	})
	h := newHandler(eng, handlerOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/solve",
		bytes.NewBufferString(`{"omega":[0.3,1.5,0.1,-1.2],"res":8}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		h.ServeHTTP(rec, req)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond) // let the solve start
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("handler did not return after client disconnect")
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("disconnected client received a body: %s", rec.Body.String())
	}
}

// TestReadyz pins readiness vs liveness: a degraded engine stays live
// on /healthz but reports 503 on /readyz so the load balancer drains it.
func TestReadyz(t *testing.T) {
	h := testHandler(t)
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ready":true`) {
		t.Fatalf("healthy readyz: %d %s", rec.Code, rec.Body.String())
	}

	degraded := newHandler(testEngine(t, serve.Config{Faults: &serve.Faults{ForceDegraded: true}}), handlerOptions{})
	rec = httptest.NewRecorder()
	degraded.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), `"ready":false`) {
		t.Fatalf("degraded readyz: %d %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	degraded.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded healthz (liveness) must stay 200, got %d", rec.Code)
	}
}

// TestAllowDegradedEndToEnd pins the HTTP opt-in: "allow_degraded":true
// gets a coarser answer flagged degraded, the plain request is shed 503.
func TestAllowDegradedEndToEnd(t *testing.T) {
	eng := testEngine(t, serve.Config{Faults: &serve.Faults{ForceDegraded: true}})
	h := newHandler(eng, handlerOptions{})
	rec := post(t, h, "/solve", `{"omega":[0.3,1.5,0.1,-1.2],"res":16,"summary":true}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("degraded cold miss: %d, want 503", rec.Code)
	}
	rec = post(t, h, "/solve", `{"omega":[0.3,1.5,0.1,-1.2],"res":16,"summary":true,"allow_degraded":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("allow_degraded request: %d %s", rec.Code, rec.Body.String())
	}
	var resp solveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.Res != 8 {
		t.Fatalf("degraded=%v res=%d, want true/8", resp.Degraded, resp.Res)
	}
}

// TestEncodeFailureLoggedOnce pins the writeJSON contract: an encode
// failure is logged once per connection and counted in /stats.
func TestEncodeFailureLoggedOnce(t *testing.T) {
	eng := testEngine(t, serve.Config{})
	var mu sync.Mutex
	var logged []string
	h := newHandler(eng, handlerOptions{logf: func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	body := `{"omega":[0.3,1.5,0.1,-1.2],"res":8}`
	for i := 0; i < 3; i++ {
		req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewBufferString(body))
		req.RemoteAddr = "10.0.0.1:55555" // same connection every time
		h.ServeHTTP(failingWriter{httptest.NewRecorder()}, req)
	}
	mu.Lock()
	n := len(logged)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("encode failure logged %d times for one connection, want 1 (%v)", n, logged)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if !strings.Contains(rec.Body.String(), `"encode_failures":3`) {
		t.Fatalf("stats: %s", rec.Body.String())
	}
}

// failingWriter fails every body write, simulating a client that hung up
// between the handler's header and body writes.
type failingWriter struct{ *httptest.ResponseRecorder }

func (failingWriter) Write([]byte) (int, error) {
	return 0, fmt.Errorf("connection reset by peer")
}
