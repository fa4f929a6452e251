package fem

import (
	"fmt"

	"mgdiffnet/internal/sparse"
	"mgdiffnet/internal/tensor"
)

// gridOf returns the dimension and resolution of a nodal field of shape
// [R, R] or [R, R, R] with R ≥ 2, and ok = false for any other shape.
func gridOf(shape []int) (dim, res int, ok bool) {
	if len(shape) != 2 && len(shape) != 3 || shape[0] < 2 {
		return 0, 0, false
	}
	for _, n := range shape {
		if n != shape[0] {
			return 0, 0, false
		}
	}
	return len(shape), shape[0], true
}

// Solve computes the FEM reference solution u_FEM for a nodal diffusivity
// field nu of shape [R, R] or [R, R, R] (R ≥ 2; any other shape panics)
// by conjugate gradients on the interior degrees of freedom with the
// Dirichlet lifting u₀ = 1 − x. This is the comparator used for the
// paper's Tables 3, 4, 5 and 7.
func Solve(nu *tensor.Tensor, tol float64, maxIter int) (*tensor.Tensor, sparse.CGResult) {
	dim, res, ok := gridOf(nu.Shape())
	if !ok {
		panic(fmt.Sprintf("fem: Solve needs ν of shape [R, R] or [R, R, R] with R ≥ 2, got %v", nu.Shape()))
	}
	p := NewProblem(dim, res)
	u0 := p.BoundaryField()
	shape := u0.Shape()

	n := u0.Len()
	op := sparse.OpFunc{N: n, F: func(y, x []float64) {
		clear(y)
		p.addEnergyGrad(x, nu.Data, y) // Apply
		p.setEnds(y, 0, 0)             // MaskInterior
	}}

	// b = −(K u₀) restricted to the interior.
	b := tensor.New(shape...)
	p.Apply(u0, nu, b)
	b.Scale(-1)
	p.MaskInterior(b)

	w := make([]float64, n)
	cg := sparse.CG(op, b.Data, w, tol, maxIter)

	u := u0.Clone()
	for i := range u.Data {
		u.Data[i] += w[i]
	}
	return u, cg
}

// Assemble builds the assembled CSR system K·u = b for p with Dirichlet
// rows replaced by the identity and Dirichlet couplings moved to the
// right-hand side (which keeps the matrix symmetric positive definite).
// It is used by the geometric multigrid solver and by the
// matrix-free-vs-assembled ablation bench. A 2D grid is one layer of
// 4-node elements whose z-derivatives are zero, so the one element loop
// gives the 2D stiffness exactly.
func Assemble(p *Problem, nu *tensor.Tensor) (*sparse.CSR, []float64) {
	r := p.Res
	ne := r - 1
	nez := max(p.d-1, 1) // element layers
	nn := 1 << p.Dim     // nodes per element
	q := elems[p.Dim]
	n := p.d * r * r
	b := make([]float64, n)
	coo := sparse.NewCOO(n)

	dirichlet := func(idx int) bool { ix := idx % r; return ix == 0 || ix == r-1 }
	gval := func(idx int) float64 {
		if idx%r == 0 {
			return 1
		}
		return 0
	}

	scale := p.dudx
	for ez := 0; ez < nez; ez++ {
		for ey := 0; ey < ne; ey++ {
			for ex := 0; ex < ne; ex++ {
				base := (ez*r+ey)*r + ex
				nodes := [8]int{ // the first four in 2D
					base, base + 1, base + r, base + r + 1,
					base + r*r, base + r*r + 1, base + r*r + r, base + r*r + r + 1,
				}
				var ke [8][8]float64
				var ve [8]float64
				for a := 0; a < nn; a++ {
					ve[a] = nu.Data[nodes[a]]
				}
				for qi := 0; qi < nn; qi++ {
					nuQ := 0.0
					for a := 0; a < nn; a++ {
						nuQ += q.n[qi][a] * ve[a]
					}
					w := p.detJ * nuQ * scale * scale
					for a := 0; a < nn; a++ {
						for bb := 0; bb < nn; bb++ {
							ke[a][bb] += w * (q.dndx[qi][a]*q.dndx[qi][bb] +
								q.dndy[qi][a]*q.dndy[qi][bb] +
								q.dndz[qi][a]*q.dndz[qi][bb])
						}
					}
				}
				for a, ia := range nodes[:nn] {
					if dirichlet(ia) {
						continue
					}
					for bb, ib := range nodes[:nn] {
						if dirichlet(ib) {
							b[ia] -= ke[a][bb] * gval(ib)
							continue
						}
						coo.Add(ia, ib, ke[a][bb])
					}
				}
			}
		}
	}
	for idx := 0; idx < n; idx++ {
		if dirichlet(idx) {
			coo.Add(idx, idx, 1)
			b[idx] = gval(idx)
		}
	}
	return coo.ToCSR(), b
}
