package fem

import (
	"fmt"

	"mgdiffnet/internal/tensor"
)

// Problem2D is the discrete Poisson problem of Eq. 6–9 on an R×R nodal
// grid over the unit square: u = 1 on the x = 0 face, u = 0 on the x = 1
// face, homogeneous Neumann on the y faces. Fields are indexed [y][x].
type Problem2D struct {
	Res int // nodes per dimension

	h    float64
	detJ float64 // (h/2)²
	dudx float64 // reference→physical gradient scale, 2/h
}

// NewPoisson2D builds the problem at the given nodal resolution (≥ 2).
func NewPoisson2D(res int) *Problem2D {
	if res < 2 {
		panic(fmt.Sprintf("fem: resolution %d too small", res))
	}
	h := 1.0 / float64(res-1)
	return &Problem2D{
		Res:  res,
		h:    h,
		detJ: h * h / 4,
		dudx: 2 / h,
	}
}

// BoundaryField returns the linear lifting 1−x on the [R, R] grid: it
// equals the Dirichlet data on Dirichlet nodes, and is both the (U_d)_bc of
// Algorithm 1 and a good initial guess for iterative solvers.
func (p *Problem2D) BoundaryField() *tensor.Tensor {
	r := p.Res
	u := tensor.New(r, r)
	for iy := 0; iy < r; iy++ {
		for ix := 0; ix < r; ix++ {
			u.Data[iy*r+ix] = 1 - float64(ix)*p.h
		}
	}
	return u
}

// ApplyBC overwrites the Dirichlet nodes of u with the boundary data,
// implementing step 8 of Algorithm 1 for a single [R, R] field.
func (p *Problem2D) ApplyBC(u *tensor.Tensor) {
	r := p.Res
	for iy := 0; iy < r; iy++ {
		u.Data[iy*r+0] = 1
		u.Data[iy*r+r-1] = 0
	}
}

// MaskInterior zeroes g on Dirichlet nodes, restricting a gradient or
// residual to the true degrees of freedom.
func (p *Problem2D) MaskInterior(g *tensor.Tensor) {
	r := p.Res
	for iy := 0; iy < r; iy++ {
		g.Data[iy*r+0] = 0
		g.Data[iy*r+r-1] = 0
	}
}

// Energy evaluates J(u) = ½ ∫ ν |∇u|² for nodal fields u, nu of shape
// [R, R]. The integral is a 2×2 Gauss quadrature per element with ν
// interpolated bilinearly from its nodal values.
func (p *Problem2D) Energy(u, nu *tensor.Tensor) float64 {
	r := p.Res
	ne := r - 1
	ud, nd := u.Data, nu.Data
	scale := p.dudx
	return tensor.ParallelReduce(ne*ne, func(lo, hi int) float64 {
		s := 0.0
		for e := lo; e < hi; e++ {
			ey, ex := e/ne, e%ne
			i00 := ey*r + ex
			var ue, ve [4]float64
			ue[0], ue[1], ue[2], ue[3] = ud[i00], ud[i00+1], ud[i00+r], ud[i00+r+1]
			ve[0], ve[1], ve[2], ve[3] = nd[i00], nd[i00+1], nd[i00+r], nd[i00+r+1]
			for q := 0; q < 4; q++ {
				nuQ, gx, gy := 0.0, 0.0, 0.0
				for a := 0; a < 4; a++ {
					nuQ += q2.n[q][a] * ve[a]
					gx += q2.dndx[q][a] * ue[a]
					gy += q2.dndy[q][a] * ue[a]
				}
				gx *= scale
				gy *= scale
				s += 0.5 * p.detJ * nuQ * (gx*gx + gy*gy)
			}
		}
		return s
	})
}

// AddEnergyGrad accumulates ∇_u J = K(ν)u into g (shape [R, R]). It is
// matrix-free: the per-element stiffness action is computed on the fly and
// scattered with a 4-coloring of the element grid so no two concurrent
// elements share a node.
func (p *Problem2D) AddEnergyGrad(u, nu, g *tensor.Tensor) {
	r := p.Res
	ne := r - 1
	ud, nd, gd := u.Data, nu.Data, g.Data
	scale := p.dudx
	for color := 0; color < 4; color++ {
		cx, cy := color%2, color/2
		nx := (ne - cx + 1) / 2
		nyc := (ne - cy + 1) / 2
		if nx <= 0 || nyc <= 0 {
			continue
		}
		// An element: 4 quadrature points × 4 nodes × 5 multiply-adds.
		tensor.Parallel(nx*nyc, 4*4*5, func(lo, hi int) {
			for job := lo; job < hi; job++ {
				ex := cx + 2*(job%nx)
				ey := cy + 2*(job/nx)
				i00 := ey*r + ex
				var ue, ve [4]float64
				ue[0], ue[1], ue[2], ue[3] = ud[i00], ud[i00+1], ud[i00+r], ud[i00+r+1]
				ve[0], ve[1], ve[2], ve[3] = nd[i00], nd[i00+1], nd[i00+r], nd[i00+r+1]
				var ge [4]float64
				for q := 0; q < 4; q++ {
					nuQ, gx, gy := 0.0, 0.0, 0.0
					for a := 0; a < 4; a++ {
						nuQ += q2.n[q][a] * ve[a]
						gx += q2.dndx[q][a] * ue[a]
						gy += q2.dndy[q][a] * ue[a]
					}
					w := p.detJ * nuQ * scale * scale
					for b := 0; b < 4; b++ {
						ge[b] += w * (gx*q2.dndx[q][b] + gy*q2.dndy[q][b])
					}
				}
				gd[i00] += ge[0]
				gd[i00+1] += ge[1]
				gd[i00+r] += ge[2]
				gd[i00+r+1] += ge[3]
			}
		})
	}
}

// Apply computes out = K(ν)·u matrix-free (out is overwritten). Because J
// is quadratic with f = 0, K(ν)u is exactly ∇J(u).
func (p *Problem2D) Apply(u, nu, out *tensor.Tensor) {
	out.Zero()
	p.AddEnergyGrad(u, nu, out)
}
