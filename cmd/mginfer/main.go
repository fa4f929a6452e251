// Command mginfer loads a model trained by cmd/mgtrain and produces,
// through the internal/serve engine, a full-field solution for a given
// parameter vector ω — or, with -omega-file, for a whole batch of ω
// vectors coalesced into shared forward passes — optionally comparing
// against the FEM reference and writing the fields as CSV or VTK.
//
// Examples:
//
//	mginfer -model model.bin -omega "0.3105,1.5386,0.0932,-1.2442" -res 64 -compare
//	mginfer -model model.bin -omega-file omegas.txt -res 64
package main

import (
	"bufio"
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mgdiffnet/internal/fem"
	"mgdiffnet/internal/field"
	"mgdiffnet/internal/prof"
	"mgdiffnet/internal/serve"
	"mgdiffnet/internal/sparse"
	"mgdiffnet/internal/tensor"
	"mgdiffnet/internal/unet"
	"mgdiffnet/internal/vtkio"
)

// readOmegaFile parses the ω file at path (see parseOmegas).
func readOmegaFile(path string) ([]field.Omega, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseOmegas(f, path)
}

// lineError is a line of an ω file that is not an ω: a malformed or
// non-finite vector, or a line longer than bufio.MaxScanTokenSize (64 KiB).
type lineError struct {
	name string
	line int
	err  error
}

func (e *lineError) Error() string { return fmt.Sprintf("%s:%d: %v", e.name, e.line, e.err) }
func (e *lineError) Unwrap() error { return e.err }

// errNoOmega reports an ω file without a single ω line.
var errNoOmega = errors.New("no omega vectors found")

// parseOmegas reads one ω per line from r, skipping blank lines and
// #-comments; name labels the errors. Every ω it returns is finite. A
// malformed line is a *lineError and a file without ω wraps errNoOmega;
// any other error is r's own.
func parseOmegas(r io.Reader, name string) ([]field.Omega, error) {
	var ws []field.Omega
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		w, err := field.ParseOmega(s)
		if err != nil {
			return nil, &lineError{name, line, err}
		}
		ws = append(ws, w)
	}
	if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		return nil, &lineError{name, line + 1, err}
	} else if err != nil {
		return nil, err
	}
	if len(ws) == 0 {
		return nil, fmt.Errorf("%s: %w", name, errNoOmega)
	}
	return ws, nil
}

func writeCSV(path string, f *tensor.Tensor) (err error) {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	// The csv writer buffers, so a full disk or closed pipe only surfaces
	// at Flush/Close time; both must be checked or the field is silently
	// truncated.
	defer func() {
		if cerr := out.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	cw := csv.NewWriter(out)
	res := f.Dim(f.Rank() - 1)
	rows := f.Len() / res
	rec := make([]string, res)
	for r := 0; r < rows; r++ {
		for c := 0; c < res; c++ {
			rec[c] = strconv.FormatFloat(f.Data[r*res+c], 'g', 8, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// solveFEM runs the FEM reference for ω at res and reports the CG outcome.
// 3D takes a looser tolerance: its CG needs far more iterations to reach
// the same residual (the 3D field's coefficient contrast is much higher).
func solveFEM(dim int, w field.Omega, res int) (*tensor.Tensor, sparse.CGResult) {
	tol := 1e-9
	if dim == 3 {
		tol = 1e-8
	}
	return fem.Solve(field.Raster(w, dim, res), tol, 50000)
}

// compareLine prints the error metrics of u against the FEM reference and
// reports whether the reference actually converged. An unconverged CG is
// not a reference: the caller must exit non-zero so scripts cannot
// mistake drift of the baseline for model error.
func compareLine(stdout, stderr io.Writer, dim int, w field.Omega, u *tensor.Tensor, res int) (uFEM *tensor.Tensor, ok bool) {
	uFEM, cg := solveFEM(dim, w, res)
	diff := u.Clone()
	diff.Sub(uFEM)
	fmt.Fprintf(stdout, "vs FEM: RMSE %.6f, max|err| %.6f, rel L2 %.6f (CG %d iters, relative residual %.3g)\n",
		u.RMSE(uFEM), diff.AbsMax(), diff.Norm2()/uFEM.Norm2(), cg.Iterations, cg.RelResidual)
	if !cg.Converged {
		fmt.Fprintf(stderr, "mginfer: FEM reference did not converge after %d iterations (relative residual %.3g); the comparison above is against an unconverged field\n",
			cg.Iterations, cg.RelResidual)
		return uFEM, false
	}
	return uFEM, true
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("mginfer", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		model     = fs.String("model", "", "path to a model saved by mgtrain (required)")
		omegaStr  = fs.String("omega", "0.3105,1.5386,0.0932,-1.2442", "parameter vector ω (4 comma-separated values)")
		omegaFile = fs.String("omega-file", "", "batch mode: file with one ω per line, answered through the batched serving engine")
		res       = fs.Int("res", 64, "inference resolution")
		compare   = fs.Bool("compare", false, "also run the FEM solver and report the error (exits non-zero if the FEM reference does not converge)")
		outCSV    = fs.String("csv", "", "write the predicted field to this CSV path (single-ω mode only)")
		outVTI    = fs.String("vti", "", "write prediction (+diffusivity, +FEM with -compare) to this VTK ImageData path (single-ω mode only)")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stopProfile, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(stderr, "mginfer:", err)
		return 1
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintln(stderr, "mginfer:", err)
			code = max(code, 1)
		}
	}()

	if *model == "" {
		fmt.Fprintln(stderr, "mginfer: -model is required")
		return 2
	}
	if *omegaFile != "" && (*outCSV != "" || *outVTI != "") {
		fmt.Fprintln(stderr, "mginfer: -csv and -vti are single-ω outputs; they cannot be combined with -omega-file")
		return 2
	}
	net, err := unet.LoadFile(*model)
	if err != nil {
		fmt.Fprintln(stderr, "mginfer:", err)
		return 1
	}
	// Validate the resolution up front: the U-Net panics mid-forward on a
	// misaligned extent, and a panic is no way to report a flag error.
	if err := serve.ValidateRes(net, *res); err != nil {
		fmt.Fprintf(stderr, "mginfer: -res %d: %v\n", *res, err)
		return 2
	}
	dim := net.Cfg.Dim

	if *omegaFile != "" {
		return runBatch(net, *omegaFile, *res, *compare, stdout, stderr)
	}

	w, err := field.ParseOmega(*omegaStr)
	if err != nil {
		fmt.Fprintln(stderr, "mginfer:", err)
		return 2
	}

	u, err := solveOne(net, w, *res)
	if err != nil {
		fmt.Fprintln(stderr, "mginfer:", err)
		return 1
	}
	fmt.Fprintf(stdout, "mginfer: %dD field at res %d, u in [%.4f, %.4f], mean %.4f\n",
		dim, *res, u.Min(), u.Max(), u.Mean())

	femOK := true
	var uFEM *tensor.Tensor
	if *compare {
		uFEM, femOK = compareLine(stdout, stderr, dim, w, u, *res)
	}

	if *outVTI != "" {
		fields := []vtkio.Field{{Name: "u_mgdiffnet", Data: u}, {Name: "nu", Data: field.Raster(w, dim, *res)}}
		if uFEM != nil {
			fields = append(fields, vtkio.Field{Name: "u_fem", Data: uFEM})
		}
		if err := vtkio.WriteFile(*outVTI, fields); err != nil {
			fmt.Fprintln(stderr, "mginfer: vti:", err)
			return 1
		}
		fmt.Fprintf(stdout, "VTK ImageData written to %s\n", *outVTI)
	}

	if *outCSV != "" {
		if err := writeCSV(*outCSV, u); err != nil {
			fmt.Fprintln(stderr, "mginfer: csv:", err)
			return 1
		}
		fmt.Fprintf(stdout, "field written to %s\n", *outCSV)
	}
	if !femOK {
		return 1
	}
	return 0
}

// solveOne answers ω at res through a one-replica engine without a cache:
// its arena holds only the activations live together, and a field of
// serve.Config.SlabVoxels voxels or more takes the slab path.
func solveOne(net *unet.UNet, w field.Omega, res int) (*tensor.Tensor, error) {
	eng, err := serve.NewEngine(serve.Config{Net: net, Replicas: 1, CacheSize: -1, BatchWindow: -1})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	r, err := eng.Solve(context.Background(), w, res)
	if err != nil {
		return nil, err
	}
	return tensor.FromSlice(r.U, field.Shape(net.Cfg.Dim, res)...), nil
}

// runBatch answers every ω in the file through the serving engine's
// coalescing dispatcher — the many-query workload the engine exists for —
// and prints one summary line per ω.
func runBatch(net *unet.UNet, path string, res int, compare bool, stdout, stderr io.Writer) int {
	ws, err := readOmegaFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "mginfer:", err)
		return 2
	}
	eng, err := serve.NewEngine(serve.Config{Net: net, BatchWindow: -1}) // greedy: a CLI batch is already queued
	if err != nil {
		fmt.Fprintln(stderr, "mginfer:", err)
		return 1
	}
	defer eng.Close()

	// Submit MaxBatch·Replicas queries at a time: every chunk fills whole
	// batches, and the engine's queue never holds enough of the file's own
	// work to trip its queue-full or degraded-mode shedding.
	st := eng.Stats()
	chunk := st.MaxBatch * st.Replicas
	results := make([]serve.Result, 0, len(ws))
	for lo := 0; lo < len(ws); lo += chunk {
		rs, err := eng.SolveBatch(context.Background(), ws[lo:min(lo+chunk, len(ws))], res)
		if err != nil {
			fmt.Fprintln(stderr, "mginfer:", err)
			return 1
		}
		results = append(results, rs...)
	}
	dim := eng.Dim()
	st = eng.Stats()
	fmt.Fprintf(stdout, "mginfer: %d %dD queries at res %d answered in %d forward passes (%d cache/dedup hits)\n",
		len(ws), dim, res, st.Forwards, st.CacheHits+st.SharedInFlight)
	femOK := true
	for i, r := range results {
		u := tensor.FromSlice(r.U, field.Shape(dim, res)...)
		fmt.Fprintf(stdout, "omega %d (%.4f,%.4f,%.4f,%.4f): u in [%.4f, %.4f], mean %.4f\n",
			i, ws[i][0], ws[i][1], ws[i][2], ws[i][3], u.Min(), u.Max(), u.Mean())
		if compare {
			if _, ok := compareLine(stdout, stderr, dim, ws[i], u, res); !ok {
				femOK = false
			}
		}
	}
	if !femOK {
		return 1
	}
	return 0
}
