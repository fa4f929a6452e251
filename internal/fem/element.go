// Package fem implements the finite-element machinery behind the paper's
// variational loss (§3.1.1): bilinear/trilinear elements on uniform grids
// over the unit square/cube, Gauss quadrature, the energy functional
// J(u) = ½B(u,u) − L(u) for the generalized Poisson equation
// −∇·(ν∇u) = 0, its matrix-free gradient (the stiffness apply K(ν)u), and
// the exact Dirichlet boundary imposition of Algorithm 1.
//
// The problem solved throughout is the paper's Eq. 6–9: u = 1 on the x = 0
// face, u = 0 on the x = 1 face, homogeneous Neumann elsewhere. With f = 0
// and natural Neumann conditions the linear form L vanishes, so
// J(u) = ½ ∫ ν |∇u|² dx, strictly positive and minimized by the solution.
//
// One Problem type serves both dimensions. A field is a (d, h, w) nodal
// grid with d = 1 in 2D, so the boundary data, the masks, the assembly and
// the CG solve are written once; only the matrix-free sweeps (Energy,
// AddEnergyGrad) keep a 4-node quad kernel and an 8-node hex kernel, since
// one kernel for both made the 2D sweep compute zero z terms.
package fem

import "math"

// elem holds the multilinear basis and its reference gradients at the
// 2^dim Gauss points. Local node a and quadrature point q count x fastest,
// then y, then z: bit k of the index set means the + side along axis k,
// matching the nodal gather order of the sweeps. A 2D table fills the
// leading 4×4 block and leaves dndz zero.
type elem struct {
	n    [8][8]float64 // n[q][a]
	dndx [8][8]float64 // reference dN/dξ
	dndy [8][8]float64 // reference dN/dη
	dndz [8][8]float64 // reference dN/dζ
}

var (
	q2, q3 = buildElem(2), buildElem(3)
	// elems is the element table by dimension.
	elems = [4]*elem{2: &q2, 3: &q3}
)

// buildElem tabulates N_a(q) = Π_k (1 + s_k p_k) / 2^dim, for node signs
// s and Gauss point coordinates p = ±1/√3, and its axis derivatives,
// multiplying the axis factors in order x, y, z.
func buildElem(dim int) elem {
	var e elem
	tab := [4]*[8][8]float64{&e.n, &e.dndx, &e.dndy, &e.dndz} // tab[1+j] differentiates along axis j
	nn := 1 << dim
	g := 1 / math.Sqrt(3)
	sign := func(i, k int) float64 { return float64(2*(i>>k&1) - 1) }
	for q := 0; q < nn; q++ {
		for a := 0; a < nn; a++ {
			for t := 0; t <= dim; t++ {
				v := 1 / float64(nn)
				for k := 0; k < dim; k++ {
					if k == t-1 {
						v *= sign(a, k)
					} else {
						v *= 1 + sign(a, k)*(g*sign(q, k))
					}
				}
				tab[t][q][a] = v
			}
		}
	}
	return e
}
