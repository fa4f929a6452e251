package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func mustSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// Small versions of the four workloads: same code paths, seconds not minutes.
func smallWorkloads() map[string]workload {
	train := trainHalfV3D
	train.Levels, train.FinestRes, train.Samples, train.EpochsPerStage = 2, 16, 4, 2
	train.TargetFrac = 0.999 // the pinned problem's second 16³ epoch ends at 0.997
	unique, zipf := serveUnique2D, serveZipf2D
	// A rate the engine sustains even when the race detector slows it tenfold.
	unique.CruiseRate, zipf.CruiseRate = 20, 20
	mega := inferMega3D
	mega.Res, mega.CheckRes = 64, 32
	return map[string]workload{
		"train_halfv3d": train, "serve_unique2d": unique, "serve_zipf2d": zipf, "infer_mega3d": mega,
	}
}

func TestSpecIsWellFormed(t *testing.T) {
	spec := mustSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		use(w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(workloads) != len(spec.Workloads) {
		t.Errorf("%d workloads implemented, %d declared", len(workloads), len(spec.Workloads))
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		use(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", m.Name)
		}
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	same := func(a, b []time.Duration) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	s1, s1again, s2 := poissonSchedule(1, 34, 5*time.Second), poissonSchedule(1, 34, 5*time.Second), poissonSchedule(2, 34, 5*time.Second)
	if !same(s1, s1again) {
		t.Error("the same seed gave two arrival schedules")
	}
	if same(s1, s2) {
		t.Error("two seeds gave the same arrival schedule")
	}
	if n := len(s1); n < 120 || n > 220 {
		t.Errorf("%d arrivals in 5 s at 34/s", n)
	}
	for i := 1; i < len(s1); i++ {
		if s1[i] < s1[i-1] {
			t.Fatal("arrival schedule is not sorted")
		}
	}
	for _, cfg := range []serveConfig{serveUnique2D, serveZipf2D} {
		a, again, b := cfg.stream(1), cfg.stream(1), cfg.stream(2)
		differs := false
		for i := range 200 {
			wa, ka := a.at(i)
			wb, kb := again.at(i)
			if wa != wb || ka != kb {
				t.Fatalf("request %d differs between two streams of one seed", i)
			}
			if wc, _ := b.at(i); wc != wa {
				differs = true
			}
		}
		if !differs {
			t.Error("two seeds gave the same requests")
		}
	}
	// Popular catalogue entries must repeat, or the cache workload has no hits.
	z := serveZipf2D.stream(1)
	counts := map[int]int{}
	for i := range 1000 {
		_, k := z.at(i)
		counts[k]++
	}
	if counts[0] < 100 || len(counts) < 50 {
		t.Errorf("Zipf draws look wrong: rank 0 drawn %d times, %d distinct entries in 1000", counts[0], len(counts))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("got %g, %g", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("got %g, %g", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median %g", m)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 95); p != 5 {
		t.Errorf("p95 %g", p)
	}
}

func TestRecorderSelfTime(t *testing.T) {
	r := newRecorder()
	root := r.begin("root", -1, 7)
	a := r.begin("child", root, 7)
	time.Sleep(5 * time.Millisecond)
	r.end(a)
	b := r.begin("child", root, 7)
	time.Sleep(5 * time.Millisecond)
	r.end(b)
	time.Sleep(2 * time.Millisecond)
	r.end(root)
	if bad := r.check(); len(bad) != 0 {
		t.Fatal(bad)
	}
	agg := r.aggregate()
	rootS, childS := agg["root"], agg["child"]
	if childS.count != 2 || rootS.count != 1 {
		t.Fatalf("counts %d, %d", childS.count, rootS.count)
	}
	if rootS.self < 0 || rootS.self != rootS.total-childS.total {
		t.Errorf("root self %v, total %v, children %v", rootS.self, rootS.total, childS.total)
	}
	open := r.begin("open", 99, 0)
	_ = open
	if bad := r.check(); len(bad) != 1 {
		t.Errorf("an unclosed span with an unknown parent gave %v", bad)
	}
	var none *recorder
	none.end(none.begin("x", -1, 0)) // a nil recorder records nothing
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := r.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(raw, []byte("\n")); n != 4 {
		t.Errorf("%d lines for 4 spans", n)
	}
}

// expectNonZero lists, per workload, per-layer metrics its traced run must
// produce; everything else may read 0 there.
var expectNonZero = map[string][]string{
	"train_halfv3d": {
		"core.epochs.res8", "core.epochs.res16", "core.level_s.res16", "unet.fwd_ms.res16", "unet.bwd_ms.res8",
		"fem.energy_eval_ms.res16", "nn.adam_ns_per_param", "nn.arena_params", "dist.allreduce_calls_per_step",
		"dist.parallel_eff", "tensor.gemm_gflops.fwd", "tensor.gemm_gflops.transA", "tensor.gemm_gflops.transB",
		"nn.conv3d_fwd_ms", "nn.conv3d_bwd_ms", "mem.bytes_per_op", "gen.sent",
	},
	"serve_unique2d": {
		"serve.idle_p50_ms", "serve.mean_batch.cruise", "serve.mean_batch.sat", "serve.forwards", "serve.miss_p50_ms",
		"serve.p99_ms", "unet.fwd_ms.b1", "unet.fwd_ms.b8", "unet.batch_gain", "fem.withbc_us", "field.raster2d_us",
		"nn.conv2d_fwd_ms.b1", "tensor.gemm_gflops.serve2d", "gen.sent",
	},
	"serve_zipf2d": {"serve.cache_hit_ratio", "serve.hit_p50_us", "serve.miss_p50_ms", "serve.forwards", "gen.sent"},
	"infer_mega3d": {
		"serve.slab_requests", "dist.slab_fwd_s.res128", "dist.slab_speedup.res64", "dist.halo_overhead_frac",
		"unet.fwd_s.mono64", "field.raster3d_ms.res128", "tensor.gemm_gflops.mega3d", "gen.sent",
	},
}

func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := mustSpec(t)
	for name, w := range smallWorkloads() {
		t.Run(name, func(t *testing.T) {
			out, spans := w.run(3, 1500*time.Millisecond, false)
			if spans != nil {
				t.Error("the untraced run recorded spans")
			}
			res, err := buildResult(spec, false, out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct %v, attempted %d, failed %d: %v", res.Correct, res.Attempted, res.Failed, out.problems)
			}
			for _, m := range spec.EndToEnd {
				if v, ok := res.Metrics[m.Name]; !ok || !(v.Value > 0) || v.Unit != m.Unit {
					t.Errorf("%s = %+v", m.Name, v)
				}
			}
			if len(res.Metrics) != len(spec.EndToEnd) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(spec.EndToEnd))
			}

			out, spans = w.run(3, 1500*time.Millisecond, true)
			res, err = buildResult(spec, true, out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run failed: %v", out.problems)
			}
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(spec.PerLayer))
			}
			for _, n := range expectNonZero[name] {
				if res.Metrics[n].Value == 0 {
					t.Errorf("%s is 0", n)
				}
			}
			if bad := spans.check(); len(bad) != 0 {
				t.Error(bad)
			}
			switch name {
			case "serve_unique2d":
				if v := res.Metrics["serve.cache_hit_ratio"].Value; v != 0 {
					t.Errorf("cache hit ratio %g with the cache off", v)
				}
			case "serve_zipf2d":
				if v := res.Metrics["serve.cache_hit_ratio"].Value; v <= 0.5 {
					t.Errorf("cache hit ratio %g", v)
				}
			case "infer_mega3d":
				if res.Metrics["serve.slab_requests"].Value != res.Metrics["gen.sent"].Value {
					t.Error("not every request took the slab path")
				}
			}
			if name != "infer_mega3d" && res.Metrics["serve.slab_requests"].Value != 0 {
				t.Error("slab requests outside infer_mega3d")
			}
		})
	}
}

func TestWrongOutputIsAFailedOperation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads")
	}
	small := smallWorkloads()
	for _, name := range []string{"serve_unique2d", "serve_zipf2d"} {
		cfg := small[name].(serveConfig)
		cfg.corrupt = func(req int, u []float64) {
			if req == cfg.Warmup { // the first timed request, which the thinned sample always keeps
				u[len(u)/2] += 1e-9
			}
		}
		out, _ := cfg.run(3, time.Second, false)
		if out.failed == 0 {
			t.Errorf("%s: a corrupted response was not caught", name)
		}
		if res, err := buildResult(mustSpec(t), false, out); err != nil || res.Correct {
			t.Errorf("%s: correct %v, err %v", name, res.Correct, err)
		}
	}
	train := small["train_halfv3d"].(trainConfig)
	train.TargetFrac = 1e-9
	if out, _ := train.run(3, time.Second, false); out.failed == 0 {
		t.Error("a schedule that never reached its loss target was not a failed run")
	}
}

func TestCommandPrintsTheResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	if raceDetector {
		t.Skip("the frozen arrival rate overloads an engine the race detector slows tenfold, and a refused request is a failed one")
	}
	spec := mustSpec(t)
	t.Chdir("..") // the command reads BENCHMARK.json from, and writes spans under, the checkout root
	for _, trace := range []string{"0", "1"} {
		var stdout bytes.Buffer
		args := []string{"--workload", "serve_unique2d", "--seed", "5", "--seconds", "1", "--trace", trace}
		if code := realMain(args, &stdout); code != 0 {
			t.Fatalf("exit code %d", code)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
			if _, ok := last[k]; !ok {
				t.Errorf("result line lacks %q", k)
			}
		}
		if len(last) != 4 {
			t.Errorf("result line has %d keys", len(last))
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := spec.EndToEnd
		if trace == "1" {
			want = spec.PerLayer
		}
		if len(metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(metrics), len(want))
		}
	}
	if code := realMain([]string{"--workload", "nope"}, &bytes.Buffer{}); code == 0 {
		t.Error("an unknown workload exited 0")
	}
	t.Chdir(t.TempDir())
	if code := realMain([]string{"--workload", "serve_unique2d"}, &bytes.Buffer{}); code == 0 {
		t.Error("a directory without BENCHMARK.json exited 0")
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := mustSpec(t)
	dir := t.TempDir()
	// A file of runs at seeds 0..n-1; the run at seed bad, if any, failed.
	writeN := func(name string, n, bad int, p50 func(i int) float64) string {
		var b bytes.Buffer
		for i := range n {
			fmt.Fprintf(&b, `{"run":{"workload":"serve_unique2d","seed":%d,"trace":0}}`+"\n", i)
			fmt.Fprintf(&b, `{"correct":%v,"attempted":1,"failed":0,"metrics":{"p50_ms":{"value":%g,"unit":"ms"}}}`+"\n", i != bad, p50(i))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	write := func(name string, p50 func(i int) float64) string { return writeN(name, 10, -1, p50) }
	steady := func(i int) float64 { return 20 + 0.01*float64(i) }
	parent := write("parent", steady)
	for _, tc := range []struct {
		name string
		p50  func(i int) float64
		want string
	}{
		{"same", steady, "no change"},
		{"faster", func(i int) float64 { return 0.8 * steady(i) }, "gain (10/10 pairs)"},
		{"slower", func(i int) float64 { return 1.5 * steady(i) }, "REGRESSION"},
		{"noisy", func(i int) float64 { return 20 + 3*float64(i) }, "unresolved"},
	} {
		var out bytes.Buffer
		if err := compareFiles(spec, parent, write(tc.name, tc.p50), &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), tc.want) || !strings.Contains(out.String(), "serve_unique2d") {
			t.Errorf("%s: want %q in\n%s", tc.name, tc.want, out.String())
		}
	}

	// Seed 7 is slow on both sides, and the change is a twentieth faster at
	// every seed. A failed run in the middle of the parent's file must leave
	// a hole: pairing by position would set every later seed against its
	// neighbour, the change's slow seed 7 against the parent's seed 8, a loss.
	slow7 := func(i int) float64 {
		if i == 7 {
			return 25
		}
		return steady(i)
	}
	var out bytes.Buffer
	err := compareFiles(spec, writeN("holed", 11, 5, slow7), writeN("faster11", 11, -1, func(i int) float64 { return 0.95 * slow7(i) }), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "gain (10/10 pairs)") || !strings.Contains(out.String(), "1 runs left out") {
		t.Errorf("a failed run in the middle of a file: want a gain over 10 pairs in\n%s", out.String())
	}
}
