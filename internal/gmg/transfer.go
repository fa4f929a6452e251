// Package gmg implements a classical geometric multigrid solver for the
// variable-coefficient Poisson problem, with the V, W, F and Half-V cycles
// illustrated in Figure 3 of the paper. It serves two roles: it is the
// numerical-linear-algebra ancestor of the paper's multigrid training
// schedules (the cycles in internal/core mirror these), and it is the fast
// FEM comparator for the §4.3 inference-versus-solve timing study.
//
// The solver works on nodal grids (d, h, w); a 2D field is one plane deep
// (d = 1). Every other axis has 2^k+1 nodes, so nested coarsening is
// exact, and a depth of 1 coarsens and refines to itself. Prolongation is
// trilinear interpolation P, which is bilinear in a plane; restriction is
// its adjoint Pᵀ (the variational choice); coarse operators are
// rediscretized FEM stiffness matrices with injected diffusivity. There is
// no Galerkin (PᵀAP) coarse operator.
package gmg

import "mgdiffnet/internal/tensor"

// grid is a nodal extent: d planes of h rows of w nodes.
type grid struct{ d, h, w int }

func (g grid) size() int { return g.d * g.h * g.w }

// coarse is the grid of every other node; a depth of 1 stays 1.
func (g grid) coarse() grid { return grid{(g.d + 1) / 2, (g.h + 1) / 2, (g.w + 1) / 2} }

// fine is the grid coarse came from.
func (g grid) fine() grid { return grid{2*g.d - 1, 2*g.h - 1, 2*g.w - 1} }

// prolong interpolates a coarse correction on gc trilinearly onto
// gc.fine().
func prolong(cd []float64, gc grid) []float64 {
	gf := gc.fine()
	fd := make([]float64, gf.size())
	at := func(z, y, x int) float64 { return cd[(z*gc.h+y)*gc.w+x] }
	tensor.Parallel(gf.d*gf.h, 8*gf.w, func(lo, hi int) {
		for row := lo; row < hi; row++ {
			fz, fy := row/gf.h, row%gf.h
			cz, oz := fz/2, fz%2
			cy, oy := fy/2, fy%2
			for fx := 0; fx < gf.w; fx++ {
				cx := fx / 2
				ox := fx % 2
				sum := 0.0
				cnt := 0.0
				for dz := 0; dz <= oz; dz++ {
					for dy := 0; dy <= oy; dy++ {
						for dx := 0; dx <= ox; dx++ {
							sum += at(cz+dz, cy+dy, cx+dx)
							cnt++
						}
					}
				}
				fd[row*gf.w+fx] = sum / cnt
			}
		}
	})
	return fd
}

// restrict applies the adjoint of prolong to a fine residual on gf,
// producing a field on gf.coarse().
func restrict(fd []float64, gf grid) []float64 {
	gc := gf.coarse()
	cd := make([]float64, gc.size())
	// Gather form of the adjoint: each coarse node collects from the fine
	// nodes whose interpolation involves it, with the same weights.
	tensor.Parallel(gc.d*gc.h, 27*gc.w, func(lo, hi int) {
		for row := lo; row < hi; row++ {
			fz, fy := 2*(row/gc.h), 2*(row%gc.h)
			for cx := 0; cx < gc.w; cx++ {
				fx := 2 * cx
				v := 0.0
				for dz := -1; dz <= 1; dz++ {
					z := fz + dz
					if z < 0 || z >= gf.d {
						continue
					}
					wz := 1.0
					if dz != 0 {
						wz = 0.5
					}
					for dy := -1; dy <= 1; dy++ {
						y := fy + dy
						if y < 0 || y >= gf.h {
							continue
						}
						wy := 1.0
						if dy != 0 {
							wy = 0.5
						}
						for dx := -1; dx <= 1; dx++ {
							x := fx + dx
							if x < 0 || x >= gf.w {
								continue
							}
							wx := 1.0
							if dx != 0 {
								wx = 0.5
							}
							v += wz * wy * wx * fd[(z*gf.h+y)*gf.w+x]
						}
					}
				}
				cd[row*gc.w+cx] = v
			}
		}
	})
	return cd
}

// inject samples a fine nodal field on gf at the even indices, producing
// the coarse-grid diffusivity.
func inject(fd []float64, gf grid) []float64 {
	gc := gf.coarse()
	cd := make([]float64, gc.size())
	for cz := 0; cz < gc.d; cz++ {
		for cy := 0; cy < gc.h; cy++ {
			for cx := 0; cx < gc.w; cx++ {
				cd[(cz*gc.h+cy)*gc.w+cx] = fd[(2*cz*gf.h+2*cy)*gf.w+2*cx]
			}
		}
	}
	return cd
}
