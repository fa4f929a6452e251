package field

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mgdiffnet/internal/tensor"
)

func TestSobolFirstPointsDim1(t *testing.T) {
	s := NewSobol(1)
	// Van der Corput: 0, 1/2, 3/4, 1/4, 3/8, ...
	want := []float64{0, 0.5, 0.75, 0.25, 0.375}
	for i, w := range want {
		p := s.Next()
		if math.Abs(p[0]-w) > 1e-12 {
			t.Fatalf("point %d = %v want %v", i, p[0], w)
		}
	}
}

func TestSobolInUnitCube(t *testing.T) {
	s := NewSobol(4)
	for i := 0; i < 4096; i++ {
		p := s.Next()
		for d, v := range p {
			if v < 0 || v >= 1 {
				t.Fatalf("point %d dim %d = %v out of [0,1)", i, d, v)
			}
		}
	}
}

func TestSobolDeterministic(t *testing.T) {
	a, b := NewSobol(4), NewSobol(4)
	for i := 0; i < 100; i++ {
		pa, pb := a.Next(), b.Next()
		for d := range pa {
			if pa[d] != pb[d] {
				t.Fatalf("sequences diverge at %d dim %d", i, d)
			}
		}
	}
}

// Low-discrepancy property: the first 2^k points of each 1D projection are
// perfectly stratified — every dyadic interval [j/2^k, (j+1)/2^k) contains
// exactly one point.
func TestSobolStratification(t *testing.T) {
	const k = 6
	const n = 1 << k
	s := NewSobol(4)
	counts := make([][]int, 4)
	for d := range counts {
		counts[d] = make([]int, n)
	}
	for i := 0; i < n; i++ {
		p := s.Next()
		for d, v := range p {
			counts[d][int(v*float64(n))]++
		}
	}
	for d := range counts {
		for j, c := range counts[d] {
			if c != 1 {
				t.Fatalf("dim %d interval %d has %d points, want 1", d, j, c)
			}
		}
	}
}

func TestSobolBadDimensionPanics(t *testing.T) {
	for _, d := range []int{0, -1, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("dim %d: expected panic", d)
				}
			}()
			NewSobol(d)
		}()
	}
}

func TestLambdasMatchPaper(t *testing.T) {
	// λ_i = 1/(1+0.25 a_i²) for a = (1.72, 4.05, 6.85, 9.82).
	want := []float64{
		1 / (1 + 0.25*1.72*1.72),
		1 / (1 + 0.25*4.05*4.05),
		1 / (1 + 0.25*6.85*6.85),
		1 / (1 + 0.25*9.82*9.82),
	}
	for i, w := range want {
		if math.Abs(Lambdas[i]-w) > 1e-15 {
			t.Fatalf("lambda[%d] = %v want %v", i, Lambdas[i], w)
		}
	}
	// Must be monotonically decreasing, as the paper requires.
	for i := 1; i < 4; i++ {
		if Lambdas[i] >= Lambdas[i-1] {
			t.Fatalf("lambdas not decreasing: %v", Lambdas)
		}
	}
}

func TestEval2DPositive(t *testing.T) {
	f := func(w0, w1, w2, w3, x, y float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(math.Abs(v), 3)
		}
		om := Omega{clamp(w0), clamp(w1), clamp(w2), clamp(w3)}
		v := Eval2D(om, math.Mod(math.Abs(clamp(x)), 1), math.Mod(math.Abs(clamp(y)), 1))
		return v > 0 && !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalZeroOmegaIsOne(t *testing.T) {
	var w Omega
	if v := Eval2D(w, 0.3, 0.7); v != 1 {
		t.Fatalf("exp(0) should be 1, got %v", v)
	}
	if v := Eval3D(w, 0.1, 0.2, 0.3); v != 1 {
		t.Fatalf("exp(0) should be 1 in 3D, got %v", v)
	}
}

func TestRaster2DMatchesPointwiseEval(t *testing.T) {
	w := Omega{0.3105, 1.5386, 0.0932, -1.2442} // ω from the paper's Table 3
	const res = 17
	f := Raster2D(w, res)
	h := 1.0 / float64(res-1)
	for iy := 0; iy < res; iy += 5 {
		for ix := 0; ix < res; ix += 3 {
			want := Eval2D(w, float64(ix)*h, float64(iy)*h)
			if got := f.At(iy, ix); math.Abs(got-want) > 1e-14 {
				t.Fatalf("raster(%d,%d)=%v want %v", iy, ix, got, want)
			}
		}
	}
}

func TestRaster3DMatchesPointwiseEval(t *testing.T) {
	w := Omega{0.6681, 1.5354, 0.7644, -2.9709}
	const res = 9
	f := Raster3D(w, res)
	h := 1.0 / float64(res-1)
	for iz := 0; iz < res; iz += 4 {
		for iy := 0; iy < res; iy += 3 {
			for ix := 0; ix < res; ix += 2 {
				want := Eval3D(w, float64(ix)*h, float64(iy)*h, float64(iz)*h)
				if got := f.At(iz, iy, ix); math.Abs(got-want) > 1e-14 {
					t.Fatalf("raster(%d,%d,%d)=%v want %v", iz, iy, ix, got, want)
				}
			}
		}
	}
}

func TestRasterBadResPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Raster2D(Omega{}, 1)
}

func TestSampleOmegasRange(t *testing.T) {
	ws := SampleOmegas(512)
	if len(ws) != 512 {
		t.Fatalf("len=%d", len(ws))
	}
	for _, w := range ws {
		for _, v := range w {
			if v < -3 || v >= 3 {
				t.Fatalf("omega %v out of [-3,3)", v)
			}
		}
	}
	// Sobol points must spread out: the per-dimension mean of many samples
	// approaches the center of the range.
	for d := 0; d < OmegaDim; d++ {
		mean := 0.0
		for _, w := range ws {
			mean += w[d]
		}
		mean /= float64(len(ws))
		if math.Abs(mean) > 0.1 {
			t.Fatalf("dim %d mean %v too far from 0", d, mean)
		}
	}
}

func TestDatasetBatchShapesAndWrap(t *testing.T) {
	ds := NewDataset(3, 2)
	b := ds.Batch(0, 4, 8) // count 4 > len 3 exercises wrap-around
	if b.Dim(0) != 4 || b.Dim(1) != 1 || b.Dim(2) != 8 || b.Dim(3) != 8 {
		t.Fatalf("batch shape %v", b.Shape())
	}
	// Sample 3 wraps to sample 0.
	for i := 0; i < 64; i++ {
		if b.Data[3*64+i] != b.Data[i] {
			t.Fatal("wrap-around sample mismatch")
		}
	}
	ds3 := NewDataset(2, 3)
	b3 := ds3.Batch(1, 2, 4)
	if b3.Rank() != 5 || b3.Dim(2) != 4 {
		t.Fatalf("3d batch shape %v", b3.Shape())
	}
}

func TestDatasetDeterministic(t *testing.T) {
	a := NewDataset(8, 2).Batch(0, 2, 8)
	b := NewDataset(8, 2).Batch(0, 2, 8)
	if a.RMSE(b) != 0 {
		t.Fatal("dataset generation must be deterministic")
	}
}

func TestDiffusivityVariesWithOmega(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w1 := Omega{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	w2 := Omega{-1, 2, -2, 1}
	f1, f2 := Raster2D(w1, 16), Raster2D(w2, 16)
	if f1.RMSE(f2) < 1e-6 {
		t.Fatal("different omegas must give different fields")
	}
}

// BatchInto must produce bit-identical batches to Batch while reusing the
// destination tensor, reallocating only when the requested shape changes.
func TestBatchIntoMatchesBatchAndReuses(t *testing.T) {
	for _, dim := range []int{2, 3} {
		d := NewDataset(6, dim)
		want := d.Batch(1, 3, 8)
		dst := d.BatchInto(nil, 1, 3, 8)
		if !dst.SameShape(want) || dst.RMSE(want) != 0 {
			t.Fatalf("dim=%d: BatchInto differs from Batch", dim)
		}
		again := d.BatchInto(dst, 4, 3, 8) // wraps around the dataset
		if again != dst {
			t.Fatalf("dim=%d: matching-shape destination was not reused", dim)
		}
		if again.RMSE(d.Batch(4, 3, 8)) != 0 {
			t.Fatalf("dim=%d: reused batch content wrong", dim)
		}
		grown := d.BatchInto(dst, 0, 2, 8)
		if grown == dst {
			t.Fatalf("dim=%d: shape change must reallocate", dim)
		}
	}
}

// TestRasterMatchesEvalBitwise pins the tabulated rasterizers to the
// pointwise evaluators bit-for-bit: caching, dedup and replica-sync
// proofs all rely on rasterization being a pure function of (ω, res).
func TestRasterMatchesEvalBitwise(t *testing.T) {
	w := Omega{0.91, -2.17, 1.33, -0.42}
	const res = 9
	h := 1.0 / float64(res-1)
	f2 := Raster2D(w, res)
	for iy := 0; iy < res; iy++ {
		for ix := 0; ix < res; ix++ {
			if got, want := f2.At(iy, ix), Eval2D(w, float64(ix)*h, float64(iy)*h); got != want {
				t.Fatalf("2D (%d,%d): raster %v, eval %v", iy, ix, got, want)
			}
		}
	}
	f3 := Raster3D(w, res)
	for iz := 0; iz < res; iz++ {
		for iy := 0; iy < res; iy++ {
			for ix := 0; ix < res; ix++ {
				got := f3.At(iz, iy, ix)
				want := Eval3D(w, float64(ix)*h, float64(iy)*h, float64(iz)*h)
				if got != want {
					t.Fatalf("3D (%d,%d,%d): raster %v, eval %v", iz, iy, ix, got, want)
				}
			}
		}
	}
}

// The rasters at sizes whose work tensor.Parallel spreads over its
// workers (a 3D plane costs res², a 2D row res) give Eval's bits at every
// worker count.
func TestRasterMatchesEvalBitwiseFannedOut(t *testing.T) {
	w := Omega{0.91, -2.17, 1.33, -0.42}
	for _, procs := range []int{1, 2, 4} {
		func() {
			defer tensor.SetParallelism(tensor.SetParallelism(procs))
			const res2, res3 = 200, 40
			h := 1.0 / float64(res2-1)
			f2 := Raster2D(w, res2)
			for iy := 0; iy < res2; iy++ {
				for ix := 0; ix < res2; ix++ {
					if got, want := f2.At(iy, ix), Eval2D(w, float64(ix)*h, float64(iy)*h); got != want {
						t.Fatalf("%d workers, 2D (%d,%d): raster %v, eval %v", procs, iy, ix, got, want)
					}
				}
			}
			h = 1.0 / float64(res3-1)
			f3 := Raster3D(w, res3)
			for iz := 0; iz < res3; iz++ {
				for iy := 0; iy < res3; iy++ {
					for ix := 0; ix < res3; ix++ {
						got := f3.At(iz, iy, ix)
						if want := Eval3D(w, float64(ix)*h, float64(iy)*h, float64(iz)*h); got != want {
							t.Fatalf("%d workers, 3D (%d,%d,%d): raster %v, eval %v", procs, iz, iy, ix, got, want)
						}
					}
				}
			}
		}()
	}
}

// BenchmarkRaster3DInto rasterizes the megavoxel benchmark's 128³ field at
// one and at two workers.
func BenchmarkRaster3DInto(b *testing.B) {
	const res = 128
	w := Omega{0.91, -2.17, 1.33, -0.42}
	dst := make([]float64, res*res*res)
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", procs), func(b *testing.B) {
			defer tensor.SetParallelism(tensor.SetParallelism(procs))
			for i := 0; i < b.N; i++ {
				Raster3DInto(dst, w, res)
			}
		})
	}
}

// TestRasterIntoDispatchesByDim checks that the dimension-generic
// RasterInto writes exactly what Raster2D/Raster3D produce, and that it
// refuses a dimensionality it has no rasterizer for.
func TestRasterIntoDispatchesByDim(t *testing.T) {
	w := Omega{-1.7, 0.4, 2.2, -0.9}
	const res = 7
	for dim, want := range map[int][]float64{2: Raster2D(w, res).Data, 3: Raster3D(w, res).Data} {
		dst := make([]float64, len(want))
		RasterInto(dst, w, dim, res)
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%dD element %d: RasterInto %v, Raster %v", dim, i, dst[i], want[i])
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RasterInto accepted dim 4")
		}
	}()
	RasterInto(make([]float64, res*res*res*res), w, 4, res)
}

// TestCheckVoxels holds the one 512³ bound the front ends share: the
// largest field is accepted, one step past it is not, in 2D and 3D, and a
// resolution whose power overflows int or that is not positive is refused
// rather than wrapped or divided by.
func TestCheckVoxels(t *testing.T) {
	for _, c := range []struct {
		dim, res int
		ok       bool
	}{
		{3, 512, true}, {3, 513, false}, {2, 11585, true}, {2, 11586, false},
		{2, 1, true}, {3, 1 << 40, false}, {2, math.MaxInt, false},
		{2, 0, false}, {3, -4, false},
	} {
		if err := CheckVoxels(c.dim, c.res); (err == nil) != c.ok {
			t.Errorf("CheckVoxels(%d, %d) = %v, want ok %v", c.dim, c.res, err, c.ok)
		}
	}
}

// TestParseOmega holds the one ω parser both commands use: surrounding
// spaces are ignored, and every rejection names what is wrong, by
// component where there is one.
func TestParseOmega(t *testing.T) {
	good := map[string]Omega{
		"0.3105,1.5386,0.0932,-1.2442":         {0.3105, 1.5386, 0.0932, -1.2442},
		" 0.3105, 1.5386 ,0.0932,\t-1.2442 \n": {0.3105, 1.5386, 0.0932, -1.2442},
		"1e-3,+2,-0,3":                         {1e-3, 2, 0, 3},
	}
	for in, want := range good {
		w, err := ParseOmega(in)
		if err != nil || w != want {
			t.Errorf("ParseOmega(%q) = %v, %v; want %v", in, w, err, want)
		}
	}
	bad := map[string]string{
		"":            "4 comma-separated values, got 1",
		"1,2,3":       "4 comma-separated values, got 3",
		"1,2,3,4,5":   "4 comma-separated values, got 5",
		"1,2,x,4":     "component 2",
		"1,,3,4":      "component 1",
		"1,NaN,3,4":   "component 1 is NaN",
		"Inf,2,3,4":   "component 0 is +Inf",
		"1,2,3,-Inf":  "component 3 is -Inf",
		"1,2,+Inf,4":  "component 2 is +Inf",
		"1,2,3,1e999": "component 3",
	}
	for in, want := range bad {
		_, err := ParseOmega(in)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseOmega(%q) error %v, want one containing %q", in, err, want)
		}
	}
}
