package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"mgdiffnet/internal/prof/proftest"
	"mgdiffnet/internal/serve"
)

// With -pprof the handler serves the runtime profiles, in a form go tool
// pprof reads; without it, the path does not exist.
func TestPprofEndpoint(t *testing.T) {
	eng := testEngine(t, serve.Config{})
	get := func(h http.Handler, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	off := newHandler(eng, handlerOptions{})
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/profile"} {
		if rec := get(off, path); rec.Code != http.StatusNotFound {
			t.Errorf("GET %s without -pprof: %d, want 404", path, rec.Code)
		}
	}
	on := newHandler(eng, handlerOptions{pprof: true})
	if rec := get(on, "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ with -pprof: %d", rec.Code)
	}
	rec := get(on, "/debug/pprof/heap")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/pprof/heap with -pprof: %d", rec.Code)
	}
	heap := filepath.Join(t.TempDir(), "heap.out")
	if err := os.WriteFile(heap, rec.Body.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	proftest.Parse(t, heap)
}
