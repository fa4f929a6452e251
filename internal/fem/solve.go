package fem

import (
	"mgdiffnet/internal/sparse"
	"mgdiffnet/internal/tensor"
)

// problem is what Solve needs of Problem2D and Problem3D.
type problem interface {
	BoundaryField() *tensor.Tensor
	Apply(u, nu, out *tensor.Tensor)
	MaskInterior(g *tensor.Tensor)
}

// Solve computes the FEM reference solution u_FEM for a nodal diffusivity
// field nu of shape [R, R] or [R, R, R] by conjugate gradients on the
// interior degrees of freedom with the Dirichlet lifting u₀ = 1 − x. This
// is the comparator used for the paper's Tables 3, 4, 5 and 7.
func Solve(nu *tensor.Tensor, tol float64, maxIter int) (*tensor.Tensor, sparse.CGResult) {
	var p problem
	if nu.Rank() == 2 {
		p = NewPoisson2D(nu.Dim(0))
	} else {
		p = NewPoisson3D(nu.Dim(0))
	}
	u0 := p.BoundaryField()
	shape := u0.Shape()

	n := u0.Len()
	op := sparse.OpFunc{N: n, F: func(y, x []float64) {
		xt := tensor.FromSlice(x, shape...)
		yt := tensor.FromSlice(y, shape...)
		p.Apply(xt, nu, yt)
		p.MaskInterior(yt)
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

// Assemble2D builds the assembled CSR system K·u = b for the 2D problem
// with Dirichlet rows replaced by the identity and Dirichlet couplings
// moved to the right-hand side (which keeps the matrix symmetric positive
// definite). It is used by the geometric multigrid solver and by the
// matrix-free-vs-assembled ablation bench.
func Assemble2D(p *Problem2D, nu *tensor.Tensor) (*sparse.CSR, []float64) {
	r := p.Res
	ne := r - 1
	n := r * r
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
	for ey := 0; ey < ne; ey++ {
		for ex := 0; ex < ne; ex++ {
			i00 := ey*r + ex
			nodes := [4]int{i00, i00 + 1, i00 + r, i00 + r + 1}
			var ke [4][4]float64
			var ve [4]float64
			for a, idx := range nodes {
				ve[a] = nu.Data[idx]
			}
			for q := 0; q < 4; q++ {
				nuQ := 0.0
				for a := 0; a < 4; a++ {
					nuQ += q2.n[q][a] * ve[a]
				}
				w := p.detJ * nuQ * scale * scale
				for a := 0; a < 4; a++ {
					for bb := 0; bb < 4; bb++ {
						ke[a][bb] += w * (q2.dndx[q][a]*q2.dndx[q][bb] + q2.dndy[q][a]*q2.dndy[q][bb])
					}
				}
			}
			for a, ia := range nodes {
				if dirichlet(ia) {
					continue
				}
				for bb, ib := range nodes {
					if dirichlet(ib) {
						b[ia] -= ke[a][bb] * gval(ib)
						continue
					}
					coo.Add(ia, ib, ke[a][bb])
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

// Assemble3D builds the assembled CSR system for the 3D problem, with the
// same Dirichlet treatment as Assemble2D.
func Assemble3D(p *Problem3D, nu *tensor.Tensor) (*sparse.CSR, []float64) {
	r := p.Res
	ne := r - 1
	n := r * r * r
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
	for ez := 0; ez < ne; ez++ {
		for ey := 0; ey < ne; ey++ {
			for ex := 0; ex < ne; ex++ {
				base := (ez*r+ey)*r + ex
				nodes := [8]int{
					base, base + 1, base + r, base + r + 1,
					base + r*r, base + r*r + 1, base + r*r + r, base + r*r + r + 1,
				}
				var ke [8][8]float64
				var ve [8]float64
				for a, idx := range nodes {
					ve[a] = nu.Data[idx]
				}
				for q := 0; q < 8; q++ {
					nuQ := 0.0
					for a := 0; a < 8; a++ {
						nuQ += q3.n[q][a] * ve[a]
					}
					w := p.detJ * nuQ * scale * scale
					for a := 0; a < 8; a++ {
						for bb := 0; bb < 8; bb++ {
							ke[a][bb] += w * (q3.dndx[q][a]*q3.dndx[q][bb] +
								q3.dndy[q][a]*q3.dndy[q][bb] +
								q3.dndz[q][a]*q3.dndz[q][bb])
						}
					}
				}
				for a, ia := range nodes {
					if dirichlet(ia) {
						continue
					}
					for bb, ib := range nodes {
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
