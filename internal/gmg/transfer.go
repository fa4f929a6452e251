// Package gmg implements a classical geometric multigrid solver for the
// variable-coefficient Poisson problem, with the V, W, F and Half-V cycles
// illustrated in Figure 3 of the paper. It serves two roles: it is the
// numerical-linear-algebra ancestor of the paper's multigrid training
// schedules (the cycles in internal/core mirror these), and it is the fast
// FEM comparator for the §4.3 inference-versus-solve timing study.
//
// Grids have 2^k+1 nodes per dimension so that nested coarsening is exact.
// Prolongation is (bi/tri)linear interpolation P; restriction is its
// adjoint Pᵀ (the variational choice); coarse operators are rediscretized
// FEM stiffness matrices with injected diffusivity.
package gmg

import "mgdiffnet/internal/tensor"

// prolong2D interpolates a coarse [rc, rc] correction bilinearly onto the
// [2rc−1, 2rc−1] fine grid.
func prolong2D(c *tensor.Tensor) *tensor.Tensor {
	rc := c.Dim(0)
	rf := 2*rc - 1
	f := tensor.New(rf, rf)
	cd, fd := c.Data, f.Data
	tensor.Parallel(rf, rf, func(lo, hi int) {
		for fy := lo; fy < hi; fy++ {
			cy := fy / 2
			oddY := fy%2 == 1
			for fx := 0; fx < rf; fx++ {
				cx := fx / 2
				oddX := fx%2 == 1
				var v float64
				switch {
				case !oddX && !oddY:
					v = cd[cy*rc+cx]
				case oddX && !oddY:
					v = 0.5 * (cd[cy*rc+cx] + cd[cy*rc+cx+1])
				case !oddX && oddY:
					v = 0.5 * (cd[cy*rc+cx] + cd[(cy+1)*rc+cx])
				default:
					v = 0.25 * (cd[cy*rc+cx] + cd[cy*rc+cx+1] + cd[(cy+1)*rc+cx] + cd[(cy+1)*rc+cx+1])
				}
				fd[fy*rf+fx] = v
			}
		}
	})
	return f
}

// restrict2D applies the adjoint of prolong2D to a fine [rf, rf] residual,
// producing a coarse [(rf+1)/2, (rf+1)/2] field.
func restrict2D(f *tensor.Tensor) *tensor.Tensor {
	rf := f.Dim(0)
	rc := (rf + 1) / 2
	c := tensor.New(rc, rc)
	cd, fd := c.Data, f.Data
	// Gather form of the adjoint: each coarse node collects from the fine
	// nodes whose interpolation involves it, with the same weights.
	tensor.Parallel(rc, 9*rc, func(lo, hi int) {
		for cy := lo; cy < hi; cy++ {
			fy := 2 * cy
			for cx := 0; cx < rc; cx++ {
				fx := 2 * cx
				v := fd[fy*rf+fx]
				if fx > 0 {
					v += 0.5 * fd[fy*rf+fx-1]
				}
				if fx < rf-1 {
					v += 0.5 * fd[fy*rf+fx+1]
				}
				if fy > 0 {
					v += 0.5 * fd[(fy-1)*rf+fx]
					if fx > 0 {
						v += 0.25 * fd[(fy-1)*rf+fx-1]
					}
					if fx < rf-1 {
						v += 0.25 * fd[(fy-1)*rf+fx+1]
					}
				}
				if fy < rf-1 {
					v += 0.5 * fd[(fy+1)*rf+fx]
					if fx > 0 {
						v += 0.25 * fd[(fy+1)*rf+fx-1]
					}
					if fx < rf-1 {
						v += 0.25 * fd[(fy+1)*rf+fx+1]
					}
				}
				cd[cy*rc+cx] = v
			}
		}
	})
	return c
}

// inject2D samples a fine nodal field at the even indices, producing the
// coarse-grid diffusivity.
func inject2D(f *tensor.Tensor) *tensor.Tensor {
	rf := f.Dim(0)
	rc := (rf + 1) / 2
	c := tensor.New(rc, rc)
	for cy := 0; cy < rc; cy++ {
		for cx := 0; cx < rc; cx++ {
			c.Data[cy*rc+cx] = f.Data[2*cy*rf+2*cx]
		}
	}
	return c
}

// prolong3D interpolates a coarse [rc]³ correction trilinearly onto the
// [2rc−1]³ fine grid.
func prolong3D(c *tensor.Tensor) *tensor.Tensor {
	rc := c.Dim(0)
	rf := 2*rc - 1
	f := tensor.New(rf, rf, rf)
	cd, fd := c.Data, f.Data
	at := func(z, y, x int) float64 { return cd[(z*rc+y)*rc+x] }
	tensor.Parallel(rf, 8*rf*rf, func(lo, hi int) {
		for fz := lo; fz < hi; fz++ {
			cz := fz / 2
			oz := fz % 2
			for fy := 0; fy < rf; fy++ {
				cy := fy / 2
				oy := fy % 2
				for fx := 0; fx < rf; fx++ {
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
					fd[(fz*rf+fy)*rf+fx] = sum / cnt
				}
			}
		}
	})
	return f
}

// restrict3D applies the adjoint of prolong3D.
func restrict3D(f *tensor.Tensor) *tensor.Tensor {
	rf := f.Dim(0)
	rc := (rf + 1) / 2
	c := tensor.New(rc, rc, rc)
	fd, cd := f.Data, c.Data
	tensor.Parallel(rc, 27*rc*rc, func(lo, hi int) {
		for cz := lo; cz < hi; cz++ {
			fz := 2 * cz
			for cy := 0; cy < rc; cy++ {
				fy := 2 * cy
				for cx := 0; cx < rc; cx++ {
					fx := 2 * cx
					v := 0.0
					for dz := -1; dz <= 1; dz++ {
						z := fz + dz
						if z < 0 || z >= rf {
							continue
						}
						wz := 1.0
						if dz != 0 {
							wz = 0.5
						}
						for dy := -1; dy <= 1; dy++ {
							y := fy + dy
							if y < 0 || y >= rf {
								continue
							}
							wy := 1.0
							if dy != 0 {
								wy = 0.5
							}
							for dx := -1; dx <= 1; dx++ {
								x := fx + dx
								if x < 0 || x >= rf {
									continue
								}
								wx := 1.0
								if dx != 0 {
									wx = 0.5
								}
								v += wz * wy * wx * fd[(z*rf+y)*rf+x]
							}
						}
					}
					cd[(cz*rc+cy)*rc+cx] = v
				}
			}
		}
	})
	return c
}

// inject3D samples a fine nodal field at even indices.
func inject3D(f *tensor.Tensor) *tensor.Tensor {
	rf := f.Dim(0)
	rc := (rf + 1) / 2
	c := tensor.New(rc, rc, rc)
	for cz := 0; cz < rc; cz++ {
		for cy := 0; cy < rc; cy++ {
			for cx := 0; cx < rc; cx++ {
				c.Data[(cz*rc+cy)*rc+cx] = f.Data[(2*cz*rf+2*cy)*rf+2*cx]
			}
		}
	}
	return c
}
