package field

import (
	"fmt"
	"math"
	"math/rand"

	"mgdiffnet/internal/tensor"
)

// Inclusion is one circular (2D) or spherical (3D) particle of a composite
// microstructure.
type Inclusion struct {
	// Center coordinates in [0,1]^dim (Z ignored in 2D).
	X, Y, Z float64
	// R is the inclusion radius.
	R float64
}

// Composite describes a two-phase material: a matrix of conductivity
// MatrixNu with embedded inclusions of conductivity InclusionNu. It is the
// "thermal transport in composites" application of the paper's conclusion
// — Eq. 3 with a piecewise (smoothed) coefficient instead of the
// log-permeability family of Eq. 10.
type Composite struct {
	MatrixNu    float64
	InclusionNu float64
	// Smooth is the interface half-width of the tanh transition used to
	// regularize the jump (a sharp coefficient jump is poorly resolved by
	// nodal interpolation; the smoothed profile converges to it as
	// Smooth → 0).
	Smooth     float64
	Inclusions []Inclusion
}

// NewRandomComposite draws n non-degenerate inclusions with radii in
// [rMin, rMax] from rng. Overlaps are permitted (as in real particulate
// composites); centers keep the inclusion inside the domain.
func NewRandomComposite(rng *rand.Rand, dim, n int, rMin, rMax, matrixNu, inclusionNu float64) *Composite {
	checkDim(dim)
	if rMin <= 0 || rMax < rMin {
		panic(fmt.Sprintf("field: bad radius range [%v, %v]", rMin, rMax))
	}
	c := &Composite{
		MatrixNu:    matrixNu,
		InclusionNu: inclusionNu,
		Smooth:      rMin / 4,
	}
	for i := 0; i < n; i++ {
		r := rMin + rng.Float64()*(rMax-rMin)
		inc := Inclusion{
			X: r + rng.Float64()*(1-2*r),
			Y: r + rng.Float64()*(1-2*r),
			R: r,
		}
		if dim == 3 {
			inc.Z = r + rng.Float64()*(1-2*r)
		}
		c.Inclusions = append(c.Inclusions, inc)
	}
	return c
}

// Eval2D returns the conductivity at (x, y): the inclusion value inside
// particles, the matrix value outside, with a smooth tanh transition.
func (c *Composite) Eval2D(x, y float64) float64 {
	phi := 0.0 // inclusion indicator in [0, 1]
	for _, inc := range c.Inclusions {
		d := math.Hypot(x-inc.X, y-inc.Y) - inc.R
		ind := 0.5 * (1 - math.Tanh(d/c.Smooth))
		if ind > phi {
			phi = ind
		}
	}
	return c.MatrixNu + (c.InclusionNu-c.MatrixNu)*phi
}

// Eval3D is the 3D analogue of Eval2D.
func (c *Composite) Eval3D(x, y, z float64) float64 {
	phi := 0.0
	for _, inc := range c.Inclusions {
		dx, dy, dz := x-inc.X, y-inc.Y, z-inc.Z
		d := math.Sqrt(dx*dx+dy*dy+dz*dz) - inc.R
		ind := 0.5 * (1 - math.Tanh(d/c.Smooth))
		if ind > phi {
			phi = ind
		}
	}
	return c.MatrixNu + (c.InclusionNu-c.MatrixNu)*phi
}

// eval is Eval2D or Eval3D by dim.
func (c *Composite) eval(dim int, x, y, z float64) float64 {
	if dim == 2 {
		return c.Eval2D(x, y)
	}
	return c.Eval3D(x, y, z)
}

// Raster samples the conductivity on a res^dim nodal grid, a tensor of
// Shape(dim, res) indexed [y][x] or [z][y][x].
func (c *Composite) Raster(dim, res int) *tensor.Tensor {
	out := tensor.New(Shape(dim, res)...)
	h := 1.0 / float64(res-1)
	rows := out.Len() / res // d·res x-rows, d = 1 in 2D
	tensor.Parallel(rows, res*len(c.Inclusions), func(lo, hi int) {
		for row := lo; row < hi; row++ {
			y, z := float64(row%res)*h, float64(row/res)*h
			for ix := 0; ix < res; ix++ {
				out.Data[row*res+ix] = c.eval(dim, float64(ix)*h, y, z)
			}
		}
	})
	return out
}

// VolumeFraction estimates the inclusion volume fraction by sampling the
// indicator on an n-per-dim grid.
func (c *Composite) VolumeFraction(dim, n int) float64 {
	mid := 0.5 * (c.MatrixNu + c.InclusionNu)
	f := c.Raster(dim, n)
	count := 0
	for _, v := range f.Data {
		if (c.InclusionNu > c.MatrixNu && v > mid) || (c.InclusionNu < c.MatrixNu && v < mid) {
			count++
		}
	}
	return float64(count) / float64(f.Len())
}

// InclusionDataset is a core.DataSource of random composite
// microstructures, one Composite per sample.
type InclusionDataset struct {
	Dim        int
	Composites []*Composite
}

// NewInclusionDataset draws n random composites with the given particle
// statistics. The same seed always yields the same microstructures.
func NewInclusionDataset(seed int64, n, dim, particles int, rMin, rMax, matrixNu, inclusionNu float64) *InclusionDataset {
	rng := rand.New(rand.NewSource(seed))
	d := &InclusionDataset{Dim: dim}
	for i := 0; i < n; i++ {
		d.Composites = append(d.Composites, NewRandomComposite(rng, dim, particles, rMin, rMax, matrixNu, inclusionNu))
	}
	return d
}

// Len implements core.DataSource.
func (d *InclusionDataset) Len() int { return len(d.Composites) }

// Batch implements core.DataSource.
func (d *InclusionDataset) Batch(start, count, res int) *tensor.Tensor {
	out := tensor.New(append([]int{count, 1}, Shape(d.Dim, res)...)...)
	per := out.Len() / count
	for k := 0; k < count; k++ {
		c := d.Composites[(start+k)%len(d.Composites)]
		copy(out.Data[k*per:(k+1)*per], c.Raster(d.Dim, res).Data)
	}
	return out
}
