// Command bench is the repository's benchmark: four fixed workloads over the
// training, serving and megavoxel-inference paths, end-to-end metrics from an
// untraced run and per-layer metrics from a traced one, with output checks.
// BENCHMARK.json at the repository root declares the workloads and metrics;
// README.md in this directory explains them.
//
//	bash bench/run.sh --workload serve_unique2d --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --seed 1
//	bash bench/run.sh --compare parent.jsonl change.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// specFile is read from the working directory: run.sh starts the command at
// the checkout root.
const specFile = "BENCHMARK.json"

// logw takes progress and diagnostics; standard output carries only the run
// record and the result line.
var logw io.Writer = os.Stderr

// workload is one set of inputs the benchmark runs.
type workload interface {
	// run measures for about the window and returns the measured values and,
	// when traced, the spans it recorded.
	run(seed int64, window time.Duration, traced bool) (*outcome, *recorder)
}

// workloads maps the names BENCHMARK.json declares to their configurations.
var workloads = map[string]workload{
	"train_halfv3d":  trainHalfV3D,
	"serve_unique2d": serveUnique2D,
	"serve_zipf2d":   serveZipf2D,
	"infer_mega3d":   inferMega3D,
}

// runRecord is printed before the result line so that a file of collected
// runs says what produced each result.
type runRecord struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GoArch     string `json:"goarch"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	secs := fs.Int("seconds", 0, "length of the measured window (default: run_seconds of the spec)")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	compare := fs.Bool("compare", false, "compare two files of collected runs: -compare parent.jsonl change.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(logw, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(logw, "bench: -compare takes two files")
			return 2
		}
		if err := compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(logw, "bench:", err)
			return 1
		}
		return 0
	}
	if *secs <= 0 {
		*secs = spec.RunSeconds
	}
	if *name == "all" {
		return runAll(spec, args, stdout)
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(logw, "bench: unknown workload %q\n", *name)
		return 2
	}

	rec := runRecord{
		Workload: *name, Seed: *seed, Seconds: *secs, Trace: *trace, Commit: commit(),
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GoArch: runtime.GOARCH,
	}
	if err := json.NewEncoder(stdout).Encode(map[string]runRecord{"run": rec}); err != nil {
		fmt.Fprintln(logw, "bench:", err)
		return 1
	}

	out, spans := w.run(*seed, time.Duration(*secs)*time.Second, *trace != 0)
	if spans != nil {
		for _, p := range spans.check() {
			out.fail("trace: %s", p)
		}
		if err := writeSpans(spans, filepath.Join(".bench_build", "trace_"+*name+".jsonl")); err != nil {
			fmt.Fprintln(logw, "bench: write spans:", err)
			return 1
		}
	}
	for _, p := range out.problems {
		fmt.Fprintln(logw, "FAILED:", p)
	}
	res, err := buildResult(spec, *trace != 0, out)
	if err != nil {
		fmt.Fprintln(logw, "bench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(logw, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func writeSpans(r *recorder, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return r.writeJSONL(path)
}

// runAll re-executes the binary once per workload, so that peak memory, GC
// state and warm caches never leak from one workload into the next.
func runAll(spec *benchSpec, args []string, stdout io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(logw, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range spec.Workloads {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.Name)...)
		cmd.Stdout, cmd.Stderr = stdout, logw
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				fmt.Fprintln(logw, "bench:", err)
			}
			code = 1
		}
	}
	return code
}

// commit names the source the binary was built from: the revision the Go
// tool stamped, or "unknown" in a checkout that is not a git repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
