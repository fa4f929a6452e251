package fem

import (
	"fmt"

	"mgdiffnet/internal/tensor"
)

// Problem3D is the 3D analogue of Problem2D on an R×R×R nodal grid over
// the unit cube: u = 1 on the x = 0 face, u = 0 on the x = 1 face,
// homogeneous Neumann on the other four faces. Fields are indexed
// [z][y][x].
type Problem3D struct {
	Res int

	h    float64
	detJ float64 // (h/2)³
	dudx float64 // 2/h
}

// NewPoisson3D builds the problem at the given nodal resolution (≥ 2).
func NewPoisson3D(res int) *Problem3D {
	if res < 2 {
		panic(fmt.Sprintf("fem: resolution %d too small", res))
	}
	h := 1.0 / float64(res-1)
	return &Problem3D{
		Res:  res,
		h:    h,
		detJ: h * h * h / 8,
		dudx: 2 / h,
	}
}

// BoundaryField returns the linear lifting 1−x on the full grid.
func (p *Problem3D) BoundaryField() *tensor.Tensor {
	r := p.Res
	u := tensor.New(r, r, r)
	for iz := 0; iz < r; iz++ {
		for iy := 0; iy < r; iy++ {
			row := (iz*r + iy) * r
			for ix := 0; ix < r; ix++ {
				u.Data[row+ix] = 1 - float64(ix)*p.h
			}
		}
	}
	return u
}

// ApplyBC overwrites the Dirichlet nodes of u with the boundary data.
func (p *Problem3D) ApplyBC(u *tensor.Tensor) {
	r := p.Res
	for iz := 0; iz < r; iz++ {
		for iy := 0; iy < r; iy++ {
			row := (iz*r + iy) * r
			u.Data[row+0] = 1
			u.Data[row+r-1] = 0
		}
	}
}

// MaskInterior zeroes g on Dirichlet nodes.
func (p *Problem3D) MaskInterior(g *tensor.Tensor) {
	r := p.Res
	for iz := 0; iz < r; iz++ {
		for iy := 0; iy < r; iy++ {
			row := (iz*r + iy) * r
			g.Data[row+0] = 0
			g.Data[row+r-1] = 0
		}
	}
}

// Energy evaluates J(u) = ½ ∫ ν |∇u|² with 2×2×2 Gauss quadrature per
// hexahedral element and trilinear interpolation of both u and ν.
func (p *Problem3D) Energy(u, nu *tensor.Tensor) float64 {
	r := p.Res
	ne := r - 1
	ud, nd := u.Data, nu.Data
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

// AddEnergyGrad accumulates K(ν)u into g using an 8-coloring of the
// element lattice for race-free parallel scatter.
func (p *Problem3D) AddEnergyGrad(u, nu, g *tensor.Tensor) {
	r := p.Res
	ne := r - 1
	ud, nd, gd := u.Data, nu.Data, g.Data
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

// Apply computes out = K(ν)·u matrix-free.
func (p *Problem3D) Apply(u, nu, out *tensor.Tensor) {
	out.Zero()
	p.AddEnergyGrad(u, nu, out)
}
