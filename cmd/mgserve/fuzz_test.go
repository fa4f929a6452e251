package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mgdiffnet/internal/field"
	"mgdiffnet/internal/serve"
)

// fuzzMaxRes is the largest valid resolution the fuzz target solves; a
// valid request above it is a legitimately costly one and is skipped.
const fuzzMaxRes = 64

// FuzzSolveBody holds /solve and /solve-batch to their contract on any
// body: a typed refusal (400, or 413 for a body past the admission
// queue's allowance) or the engine's own answer to the same queries, bit
// for bit — never a panic and never a 500. The seeds cover NaN, Inf and
// absent ω, wrong arity, a res that is 0, negative, not a multiple of the
// network's granularity or huge, a batch longer than the admission queue,
// and bytes or a second value after the request object. A resolution alone cannot size an allocation: ValidateRes
// refuses anything past 512³ voxels before a field is built, and the body
// is read through a bound of its own.
func FuzzSolveBody(f *testing.F) {
	for _, seed := range []struct {
		batch bool
		body  string
	}{
		{false, `{"omega":[0.3,1.5,0.1,-1.2],"res":8}`},
		{false, `{"omega":[0.3,1.5,0.1,-1.2],"res":16,"summary":true}`},
		{false, `{"omega":[NaN,1.5,0.1,-1.2],"res":8}`},
		{false, `{"omega":[1e999,1.5,0.1,-1.2],"res":8}`},
		{false, `{"omega":["Inf",1.5,0.1,-1.2],"res":8}`},
		{false, `{"res":8}`},
		{false, `{"omega":[0.3,1.5,0.1],"res":8}`},
		{false, `{"omega":[0.3,1.5,0.1,-1.2,7],"res":8}`},
		{false, `{"omega":[0.3,1.5,0.1,-1.2],"res":0}`},
		{false, `{"omega":[0.3,1.5,0.1,-1.2],"res":-8}`},
		{false, `{"omega":[0.3,1.5,0.1,-1.2],"res":10}`},
		{false, `{"omega":[0.3,1.5,0.1,-1.2],"res":1073741824}`},
		{false, `{"omega":[0.3,1.5,0.1,-1.2],"res":9223372036854775807}`},
		{false, `{"omega":[0.3,1.5,0.1,-1.2],"res":99999999999999999999}`},
		{false, `not json`},
		{false, `{"omega":[0.3,1.5,0.1,-1.2],"res":8} trailing`},
		{false, `{"omega":[0.3,1.5,0.1,-1.2],"res":8}` + "\n"},
		{true, `{"omegas":[[0.3,1.5,0.1,-1.2],[0,0,0,0]],"res":8,"summary":true}`},
		{true, `{"omegas":[],"res":8}`},
		{true, `{"omegas":[[0.3,1.5,0.1]],"res":8}`},
		{true, `{"omegas":[[0.3,1.5,0.1,-1.2]],"res":12}`},
		{true, `{"omegas":[[0.3,1.5,0.1,-1.2]],"res":8} {"res":16}`},
		{true, `{"omegas":[` + strings.Repeat(`[0,0,0,0],`, 70) + `[0,0,0,0]],"res":8}`},
		{true, `{"omegas":[` + strings.Repeat(`[0,0,0,0],`, 8000) + `[0,0,0,0]],"res":8}`},
	} {
		f.Add(seed.batch, seed.body)
	}
	eng := testEngine(f, serve.Config{MaxQueue: 64})
	h := newHandler(eng, handlerOptions{})
	f.Fuzz(func(t *testing.T, batch bool, body string) {
		path := "/solve"
		if batch {
			path = "/solve-batch"
		}
		var req solveRequest // the whole body, one JSON value
		parsed := json.Unmarshal([]byte(body), &req) == nil
		if parsed && eng.ValidateRes(req.Res) == nil && req.Res > fuzzMaxRes {
			t.Skip("a valid resolution above the fuzz bound")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewBufferString(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			var msg map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &msg); err != nil || msg["error"] == "" {
				t.Fatalf("%s %q: %d without a JSON error: %q", path, body, rec.Code, rec.Body.String())
			}
			return
		default:
			t.Fatalf("%s %q: status %d (%s)", path, body, rec.Code, rec.Body.String())
		}
		if !parsed {
			t.Fatalf("%s %q: answered 200 to a body that does not decode", path, body)
		}
		queries := [][]float64{req.Omega}
		var got []solveResponse
		if batch {
			queries = req.Omegas
			var out struct{ Results []solveResponse }
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("%s %q: %v", path, body, err)
			}
			got = out.Results
		} else {
			var out solveResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("%s %q: %v", path, body, err)
			}
			got = []solveResponse{out}
		}
		if len(got) != len(queries) {
			t.Fatalf("%s %q: %d answers to %d queries", path, body, len(got), len(queries))
		}
		for i, vals := range queries {
			if len(vals) != field.OmegaDim {
				t.Fatalf("%s %q: answered query %d with %d ω values", path, body, i, len(vals))
			}
			var w field.Omega
			copy(w[:], vals)
			want, err := eng.Solve(context.Background(), w, req.Res)
			if err != nil {
				t.Fatalf("%s %q: the engine refuses query %d that the handler answered: %v", path, body, i, err)
			}
			if got[i].Res != req.Res || (!req.Summary && len(got[i].U) != len(want.U)) {
				t.Fatalf("%s %q: answer %d has res %d and %d values, want res %d and %d", path, body, i, got[i].Res, len(got[i].U), req.Res, len(want.U))
			}
			for j := range got[i].U {
				if math.Float64bits(got[i].U[j]) != math.Float64bits(want.U[j]) {
					t.Fatalf("%s %q: answer %d element %d is %v, the engine gives %v", path, body, i, j, got[i].U[j], want.U[j])
				}
			}
		}
	})
}
