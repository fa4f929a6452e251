package fem

import (
	"fmt"

	"mgdiffnet/internal/tensor"
)

// Problem is the discrete Poisson problem of Eq. 6–9 on a nodal grid of
// Res nodes per side over the unit square (Dim 2) or cube (Dim 3): u = 1
// on the x = 0 face, u = 0 on the x = 1 face, homogeneous Neumann on the
// others. Fields have Shape() and are indexed [y][x] or [z][y][x]; either
// way they are d·Res x-rows of Res nodes, with d = 1 in 2D and Res in 3D,
// which is all the boundary data needs to know.
type Problem struct {
	Dim, Res int

	d    int // planes: 1 in 2D
	h    float64
	detJ float64 // (h/2)^Dim
	dudx float64 // reference→physical gradient scale, 2/h
}

// NewProblem builds the problem in dim = 2 or 3 at the given nodal
// resolution (≥ 2).
func NewProblem(dim, res int) *Problem {
	if dim != 2 && dim != 3 {
		panic(fmt.Sprintf("fem: dimension %d is not 2 or 3", dim))
	}
	if res < 2 {
		panic(fmt.Sprintf("fem: resolution %d too small", res))
	}
	h := 1.0 / float64(res-1)
	p := &Problem{Dim: dim, Res: res, d: 1, h: h, detJ: 1, dudx: 2 / h}
	for k := 0; k < dim; k++ {
		p.detJ *= h / 2
	}
	for k := 2; k < dim; k++ {
		p.d *= res
	}
	return p
}

// Shape returns the nodal field shape, [Res, Res] or [Res, Res, Res].
func (p *Problem) Shape() []int { return []int{p.Res, p.Res, p.Res}[:p.Dim] }

// BoundaryField returns the linear lifting 1−x on the full grid: it equals
// the Dirichlet data on Dirichlet nodes, and is both the (U_d)_bc of
// Algorithm 1 and a good initial guess for iterative solvers.
func (p *Problem) BoundaryField() *tensor.Tensor {
	u := tensor.New(p.Shape()...)
	for i := range u.Data {
		u.Data[i] = 1 - float64(i%p.Res)*p.h
	}
	return u
}

// ApplyBC overwrites the Dirichlet nodes of u with the boundary data,
// implementing step 8 of Algorithm 1.
func (p *Problem) ApplyBC(u *tensor.Tensor) { p.setEnds(u.Data, 1, 0) }

// MaskInterior zeroes g on Dirichlet nodes, restricting a gradient or
// residual to the true degrees of freedom.
func (p *Problem) MaskInterior(g *tensor.Tensor) { p.setEnds(g.Data, 0, 0) }

// setEnds writes first at the x = 0 end and last at the x = 1 end of
// every x-row of v, which holds one field or a batch of them back to back.
func (p *Problem) setEnds(v []float64, first, last float64) {
	r := p.Res
	for i := 0; i < len(v); i += r {
		v[i] = first
		v[i+r-1] = last
	}
}

// Energy evaluates J(u) = ½ ∫ ν |∇u|² for nodal fields u, nu: a 2×2 (or
// 2×2×2) Gauss quadrature per element with u and ν interpolated
// bilinearly (trilinearly) from their nodal values.
func (p *Problem) Energy(u, nu *tensor.Tensor) float64 { return p.energy(u.Data, nu.Data) }

// AddEnergyGrad accumulates ∇_u J = K(ν)u into g. It is matrix-free: the
// per-element stiffness action is computed on the fly and scattered with a
// 2^Dim-coloring of the element grid, so no two concurrent elements share
// a node and the result does not depend on the worker count.
func (p *Problem) AddEnergyGrad(u, nu, g *tensor.Tensor) { p.addEnergyGrad(u.Data, nu.Data, g.Data) }

// Apply computes out = K(ν)·u matrix-free (out is overwritten). Because J
// is quadratic with f = 0, K(ν)u is exactly ∇J(u).
func (p *Problem) Apply(u, nu, out *tensor.Tensor) {
	out.Zero()
	p.AddEnergyGrad(u, nu, out)
}

func (p *Problem) energy(ud, nd []float64) float64 {
	if p.Dim == 2 {
		return p.energyQuad(ud, nd)
	}
	return p.energyHex(ud, nd)
}

func (p *Problem) addEnergyGrad(ud, nd, gd []float64) {
	if p.Dim == 2 {
		p.addEnergyGradQuad(ud, nd, gd)
		return
	}
	p.addEnergyGradHex(ud, nd, gd)
}

func (p *Problem) energyQuad(ud, nd []float64) float64 {
	r := p.Res
	ne := r - 1
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

func (p *Problem) addEnergyGradQuad(ud, nd, gd []float64) {
	r := p.Res
	ne := r - 1
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

func (p *Problem) energyHex(ud, nd []float64) float64 {
	r := p.Res
	ne := r - 1
	scale := p.dudx
	return tensor.ParallelReduce(ne*ne*ne, func(lo, hi int) float64 {
		s := 0.0
		for e := lo; e < hi; e++ {
			ez := e / (ne * ne)
			rem := e % (ne * ne)
			ey, ex := rem/ne, rem%ne
			base := (ez*r+ey)*r + ex
			var off [8]int
			off[0], off[1] = base, base+1
			off[2], off[3] = base+r, base+r+1
			off[4], off[5] = base+r*r, base+r*r+1
			off[6], off[7] = base+r*r+r, base+r*r+r+1
			var ue, ve [8]float64
			for a := 0; a < 8; a++ {
				ue[a] = ud[off[a]]
				ve[a] = nd[off[a]]
			}
			for q := 0; q < 8; q++ {
				nuQ, gx, gy, gz := 0.0, 0.0, 0.0, 0.0
				for a := 0; a < 8; a++ {
					nuQ += q3.n[q][a] * ve[a]
					gx += q3.dndx[q][a] * ue[a]
					gy += q3.dndy[q][a] * ue[a]
					gz += q3.dndz[q][a] * ue[a]
				}
				gx *= scale
				gy *= scale
				gz *= scale
				s += 0.5 * p.detJ * nuQ * (gx*gx + gy*gy + gz*gz)
			}
		}
		return s
	})
}

func (p *Problem) addEnergyGradHex(ud, nd, gd []float64) {
	r := p.Res
	ne := r - 1
	scale := p.dudx
	for color := 0; color < 8; color++ {
		cx, cy, cz := color&1, (color>>1)&1, (color>>2)&1
		nx := (ne - cx + 1) / 2
		ny := (ne - cy + 1) / 2
		nz := (ne - cz + 1) / 2
		if nx <= 0 || ny <= 0 || nz <= 0 {
			continue
		}
		// An element: 8 quadrature points × 8 nodes × 7 multiply-adds.
		tensor.Parallel(nx*ny*nz, 8*8*7, func(lo, hi int) {
			for job := lo; job < hi; job++ {
				ex := cx + 2*(job%nx)
				ey := cy + 2*((job/nx)%ny)
				ez := cz + 2*(job/(nx*ny))
				base := (ez*r+ey)*r + ex
				var off [8]int
				off[0], off[1] = base, base+1
				off[2], off[3] = base+r, base+r+1
				off[4], off[5] = base+r*r, base+r*r+1
				off[6], off[7] = base+r*r+r, base+r*r+r+1
				var ue, ve, ge [8]float64
				for a := 0; a < 8; a++ {
					ue[a] = ud[off[a]]
					ve[a] = nd[off[a]]
				}
				for q := 0; q < 8; q++ {
					nuQ, gx, gy, gz := 0.0, 0.0, 0.0, 0.0
					for a := 0; a < 8; a++ {
						nuQ += q3.n[q][a] * ve[a]
						gx += q3.dndx[q][a] * ue[a]
						gy += q3.dndy[q][a] * ue[a]
						gz += q3.dndz[q][a] * ue[a]
					}
					w := p.detJ * nuQ * scale * scale
					for b := 0; b < 8; b++ {
						ge[b] += w * (gx*q3.dndx[q][b] + gy*q3.dndy[q][b] + gz*q3.dndz[q][b])
					}
				}
				for b := 0; b < 8; b++ {
					gd[off[b]] += ge[b]
				}
			}
		})
	}
}
