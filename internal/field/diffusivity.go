package field

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"mgdiffnet/internal/tensor"
)

// xiTabPool recycles the per-axis ξ tables of the rasterizers so the
// serving hot path and the training batch builder stay allocation-free
// in steady state (PR 4's guarantee).
var xiTabPool = sync.Pool{New: func() any { return new([]float64) }}

// xiTables returns two ξ tables of OmegaDim·res entries each from the
// pool: wx with ω_i·λ_i folded in for the x axis, xt plain. put returns
// the backing storage to the pool.
func xiTables(omega Omega, res int, h float64) (wx, xt []float64, put func()) {
	bp := xiTabPool.Get().(*[]float64)
	need := 2 * OmegaDim * res
	if cap(*bp) < need {
		*bp = make([]float64, need)
	}
	buf := (*bp)[:need]
	wx, xt = buf[:OmegaDim*res], buf[OmegaDim*res:]
	for i := 0; i < OmegaDim; i++ {
		for t := 0; t < res; t++ {
			v := xi(i, float64(t)*h)
			wx[i*res+t] = omega[i] * Lambdas[i] * v
			xt[i*res+t] = v
		}
	}
	return wx, xt, func() { xiTabPool.Put(bp) }
}

// The paper's fixed spectral data for Eq. 10: a = (1.72, 4.05, 6.85, 9.82),
// λ_i = 1/(1+0.25 a_i²), and the separable eigenfunction
// ξ_i(t) = (a_i/2)·cos(a_i t) + sin(a_i t) used in x, y (and z in 3D).
var (
	// AValues are the frequencies a_i of Eq. 10.
	AValues = [4]float64{1.72, 4.05, 6.85, 9.82}
	// Lambdas are the decay coefficients λ_i of Eq. 10.
	Lambdas [4]float64
)

func init() {
	for i, a := range AValues {
		Lambdas[i] = 1.0 / (1.0 + 0.25*a*a)
	}
}

// CheckVoxels rejects a res^dim field beyond 512³ voxels, the largest
// domain the paper solves. Every front end checks its resolution with it,
// so a resolution flag or request alone cannot size an allocation.
func CheckVoxels(dim, res int) error {
	const maxVoxels = 512 * 512 * 512
	if res < 1 {
		return fmt.Errorf("resolution %d is not positive", res)
	}
	voxels := 1
	for range dim {
		if res > maxVoxels/voxels {
			return fmt.Errorf("resolution %d asks for %d^%d voxels, more than the 512³ bound", res, res, dim)
		}
		voxels *= res
	}
	return nil
}

// OmegaDim is the dimension m of the parameter vector ω in the paper.
const OmegaDim = 4

// OmegaRange is the sampling range of each ω_i: [-OmegaRange, OmegaRange].
const OmegaRange = 3.0

// Omega is a parameter vector of the diffusivity family.
type Omega [OmegaDim]float64

// ParseOmega reads OmegaDim comma-separated finite numbers; spaces around
// each are ignored. Errors name the offending component.
func ParseOmega(s string) (Omega, error) {
	var w Omega
	parts := strings.Split(s, ",")
	if len(parts) != OmegaDim {
		return w, fmt.Errorf("omega needs %d comma-separated values, got %d", OmegaDim, len(parts))
	}
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return w, fmt.Errorf("omega component %d: %w", i, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return w, fmt.Errorf("omega component %d is %v; it must be finite", i, v)
		}
		w[i] = v
	}
	return w, nil
}

// xi evaluates the separable eigenfunction ξ_i(t) = (a_i/2)cos(a_i t) + sin(a_i t).
func xi(i int, t float64) float64 {
	a := AValues[i]
	return 0.5*a*math.Cos(a*t) + math.Sin(a*t)
}

// Eval2D evaluates ˜ν(x, y; ω) = exp(Σ ω_i λ_i ξ_i(x) η_i(y)) from Eq. 10.
func Eval2D(omega Omega, x, y float64) float64 {
	s := 0.0
	for i := 0; i < OmegaDim; i++ {
		s += omega[i] * Lambdas[i] * xi(i, x) * xi(i, y)
	}
	return math.Exp(s)
}

// Eval3D evaluates the natural 3D extension of Eq. 10 with a third
// separable factor ζ_i(z) of the same form. The paper states the 3D
// diffusivity maps are "as described by Equation 10" without writing the
// extension; the separable product is the standard Karhunen–Loève-style
// choice and preserves the 2D family on the z=const slices up to scaling.
func Eval3D(omega Omega, x, y, z float64) float64 {
	s := 0.0
	for i := 0; i < OmegaDim; i++ {
		s += omega[i] * Lambdas[i] * xi(i, x) * xi(i, y) * xi(i, z)
	}
	return math.Exp(s)
}

// Shape returns the nodal shape of a res^dim field: [res, res] in 2D,
// [res, res, res] in 3D. It panics unless dim is 2 or 3.
func Shape(dim, res int) []int {
	checkDim(dim)
	return []int{res, res, res}[:dim]
}

// checkDim panics unless dim is 2 or 3.
func checkDim(dim int) {
	if dim != 2 && dim != 3 {
		panic(fmt.Sprintf("field: dim must be 2 or 3, got %d", dim))
	}
}

// Raster evaluates the diffusivity on a res^dim nodal grid over [0,1]^dim
// (nodes at i/(res-1)) and returns a tensor of Shape(dim, res), indexed
// [y][x] or [z][y][x].
func Raster(omega Omega, dim, res int) *tensor.Tensor {
	if res < 2 {
		panic(fmt.Sprintf("field: Raster needs res >= 2, got %d", res))
	}
	out := tensor.New(Shape(dim, res)...)
	RasterInto(out.Data, omega, dim, res)
	return out
}

// RasterInto rasterizes omega at res into dst (length res^dim), letting
// batch builders (the training data, the serving engine) fill slices of a
// reused tensor without intermediate copies or per-request allocation.
//
// The eigenfunctions are separable, so ξ_i is tabulated once per axis
// (O(res) trig calls) instead of being re-evaluated at every grid point;
// per-term multiplication and summation association matches Eval2D and
// Eval3D exactly, so the result is bit-identical to the pointwise path —
// the serving cache and the distributed trainer's replica-sync proofs
// both rely on rasterization being a pure function of (ω, dim, res).
func RasterInto(dst []float64, omega Omega, dim, res int) {
	checkDim(dim)
	n := 1
	for range dim {
		n *= res
	}
	if len(dst) != n {
		panic(fmt.Sprintf("field: RasterInto needs %d elements, got %d", n, len(dst)))
	}
	h := 1.0 / float64(res-1)
	// wx folds ω_i·λ_i into the x-axis table so the inner loop keeps the
	// ((ω·λ)·ξx)·ξy(·ξz) association of Eval2D/Eval3D; xt is the plain
	// table for the y and z axes.
	wx, xt, put := xiTables(omega, res, h)
	defer put()
	if dim == 2 {
		raster2DInto(dst, wx, xt, res)
		return
	}
	raster3DInto(dst, wx, xt, res)
}

func raster2DInto(dst, wx, xt []float64, res int) {
	tensor.Parallel(res, res, func(lo, hi int) {
		for iy := lo; iy < hi; iy++ {
			row := iy * res
			for ix := 0; ix < res; ix++ {
				s := 0.0
				for i := 0; i < OmegaDim; i++ {
					s += wx[i*res+ix] * xt[i*res+iy]
				}
				dst[row+ix] = math.Exp(s)
			}
		}
	})
}

func raster3DInto(dst, wx, xt []float64, res int) {
	tensor.Parallel(res, res*res, func(lo, hi int) {
		for iz := lo; iz < hi; iz++ {
			for iy := 0; iy < res; iy++ {
				row := (iz*res + iy) * res
				for ix := 0; ix < res; ix++ {
					s := 0.0
					for i := 0; i < OmegaDim; i++ {
						s += wx[i*res+ix] * xt[i*res+iy] * xt[i*res+iz]
					}
					dst[row+ix] = math.Exp(s)
				}
			}
		}
	})
}

// SampleOmegas draws n parameter vectors from [-3,3]^4 with the Sobol
// sequence, reproducing the paper's quasi-random coefficient sampling.
// The all-zero first Sobol point (which maps to ω = -3·1) is included,
// matching a plain scaled sequence.
func SampleOmegas(n int) []Omega {
	s := NewSobol(OmegaDim)
	out := make([]Omega, n)
	for k := 0; k < n; k++ {
		p := s.Next()
		var w Omega
		for i := 0; i < OmegaDim; i++ {
			w[i] = -OmegaRange + 2*OmegaRange*p[i]
		}
		out[k] = w
	}
	return out
}

// Dataset is a collection of parameter vectors with lazy rasterization at a
// chosen resolution and dimensionality.
type Dataset struct {
	Omegas []Omega
	Dim    int // 2 or 3
}

// NewDataset samples n Sobol parameter vectors for dim-dimensional fields.
func NewDataset(n, dim int) *Dataset {
	checkDim(dim)
	return &Dataset{Omegas: SampleOmegas(n), Dim: dim}
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Omegas) }

// Batch rasterizes samples [start, start+count) at the given resolution and
// stacks them into a network input tensor: [count, 1, res, res] in 2D or
// [count, 1, res, res, res] in 3D. Indices wrap around the dataset, which
// implements the paper's dataset augmentation that makes the sample count
// divisible by the worker count.
func (d *Dataset) Batch(start, count, res int) *tensor.Tensor {
	return d.BatchInto(nil, start, count, res)
}

// BatchInto is Batch rasterizing into dst when dst already has the batch
// shape; a nil or mismatched dst is replaced by a fresh tensor, and the
// used tensor is returned. Reusing the destination across mini-batches —
// as core.Trainer does — makes the steady-state batch build
// allocation-free, and the samples are rasterized in place rather than
// copied through per-sample temporaries.
func (d *Dataset) BatchInto(dst *tensor.Tensor, start, count, res int) *tensor.Tensor {
	shape := []int{count, 1, res, res, res}[:2+d.Dim] // [count, 1] + Shape(d.Dim, res), on the stack
	out := dst
	if out == nil || !out.ShapeIs(shape...) {
		out = tensor.New(shape...)
	}
	per := out.Len() / count
	for k := 0; k < count; k++ {
		RasterInto(out.Data[k*per:(k+1)*per], d.Omegas[(start+k)%len(d.Omegas)], d.Dim, res)
	}
	return out
}
