// Command mginfer loads a model trained by cmd/mgtrain and produces a
// full-field solution for a given parameter vector ω — or, with
// -omega-file, for a whole batch of ω vectors coalesced through the
// internal/serve engine — optionally comparing against the FEM reference
// and writing the fields as CSV or VTK.
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

// readOmegaFile parses one ω per line; blank lines and #-comments are
// skipped.
func readOmegaFile(path string) ([]field.Omega, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ws []field.Omega
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		w, err := field.ParseOmega(s)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		ws = append(ws, w)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(ws) == 0 {
		return nil, fmt.Errorf("%s: no omega vectors found", path)
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
func solveFEM(dim int, w field.Omega, res int) (*tensor.Tensor, sparse.CGResult) {
	if dim == 2 {
		return fem.Solve(field.Raster2D(w, res), 1e-9, 50000)
	}
	return fem.Solve(field.Raster3D(w, res), 1e-8, 50000)
}

// compareLine prints the error metrics of u against the FEM reference and
// reports whether the reference actually converged. An unconverged CG is
// not a reference: the caller must exit non-zero so scripts cannot
// mistake drift of the baseline for model error.
func compareLine(stdout, stderr io.Writer, dim int, w field.Omega, u *tensor.Tensor, res int) (uFEM *tensor.Tensor, ok bool) {
	uFEM, cg := solveFEM(dim, w, res)
	diff := u.Clone()
	diff.Sub(uFEM)
	fmt.Fprintf(stdout, "vs FEM: RMSE %.6f, max|err| %.6f, rel L2 %.6f (CG %d iters, residual %.3g)\n",
		u.RMSE(uFEM), diff.AbsMax(), diff.Norm2()/uFEM.Norm2(), cg.Iterations, cg.Residual)
	if !cg.Converged {
		fmt.Fprintf(stderr, "mginfer: FEM reference did not converge after %d iterations (residual %.3g); the comparison above is against an unconverged field\n",
			cg.Iterations, cg.Residual)
		return uFEM, false
	}
	return uFEM, true
}

func fieldTensor(dim int, data []float64, res int) *tensor.Tensor {
	if dim == 2 {
		return tensor.FromSlice(data, res, res)
	}
	return tensor.FromSlice(data, res, res, res)
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

	loss := fem.NewEnergyLoss(dim)
	var nu *tensor.Tensor
	if dim == 2 {
		nu = tensor.New(1, 1, *res, *res)
	} else {
		nu = tensor.New(1, 1, *res, *res, *res)
	}
	field.RasterInto(nu.Data, w, dim, *res)
	pred := loss.WithBC(net.Forward(nu, false))
	u := fieldTensor(dim, pred.Data, *res)
	fmt.Fprintf(stdout, "mginfer: %dD field at res %d, u in [%.4f, %.4f], mean %.4f\n",
		dim, *res, u.Min(), u.Max(), u.Mean())

	femOK := true
	var uFEM *tensor.Tensor
	if *compare {
		uFEM, femOK = compareLine(stdout, stderr, dim, w, u, *res)
	}

	if *outVTI != "" {
		var nuField *tensor.Tensor
		if dim == 2 {
			nuField = field.Raster2D(w, *res)
		} else {
			nuField = field.Raster3D(w, *res)
		}
		fields := []vtkio.Field{{Name: "u_mgdiffnet", Data: u}, {Name: "nu", Data: nuField}}
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

	results, err := eng.SolveBatch(context.Background(), ws, res)
	if err != nil {
		fmt.Fprintln(stderr, "mginfer:", err)
		return 1
	}
	dim := eng.Dim()
	st := eng.Stats()
	fmt.Fprintf(stdout, "mginfer: %d %dD queries at res %d answered in %d forward passes (%d cache/dedup hits)\n",
		len(ws), dim, res, st.Forwards, st.CacheHits+st.SharedInFlight)
	femOK := true
	for i, r := range results {
		u := fieldTensor(dim, r.U, res)
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
