// Package field generates the parametric diffusivity maps of the paper:
// the log-permeability family of Eq. 10, with coefficient vectors ω drawn
// by quasi-random Sobol sampling (§4.1), and rasterizes them onto nodal
// grids as network inputs. The dimension is a value: Raster, RasterInto
// and Composite.Raster take dim = 2 or 3 and return fields of
// Shape(dim, res), so batch builders and front ends carry no 2D/3D twins.
package field

import "fmt"

// Direction-number table (Joe & Kuo, new-joe-kuo-6) for Sobol dimensions
// 2..16; dimension 1 is the van der Corput sequence. Each row is
// {s, a, m_1..m_s}. The paper needs m = 4 parameter dimensions; more are
// provided for ablations and future work.
var joeKuo = [][]uint32{
	{1, 0, 1},
	{2, 1, 1, 3},
	{3, 1, 1, 3, 1},
	{3, 2, 1, 1, 1},
	{4, 1, 1, 1, 3, 3},
	{4, 4, 1, 3, 5, 13},
	{5, 2, 1, 1, 5, 5, 17},
	{5, 4, 1, 1, 5, 5, 5},
	{5, 7, 1, 1, 7, 11, 19},
	{5, 11, 1, 1, 5, 1, 1},
	{5, 13, 1, 1, 1, 3, 11},
	{5, 14, 1, 3, 5, 5, 31},
	{6, 1, 1, 3, 3, 9, 7, 49},
	{6, 13, 1, 1, 1, 15, 21, 21},
	{6, 16, 1, 3, 1, 13, 27, 49},
}

const sobolBits = 32

// Sobol is a quasi-random low-discrepancy sequence generator using the
// Gray-code construction. It is deterministic: two generators of the same
// dimension always produce the same sequence.
type Sobol struct {
	dim int
	n   uint64
	x   []uint32   // current Gray-code state per dimension
	v   [][]uint32 // direction numbers [dim][bits]
}

// NewSobol creates a Sobol generator in the given dimension (1..16).
func NewSobol(dim int) *Sobol {
	if dim < 1 || dim > len(joeKuo)+1 {
		panic(fmt.Sprintf("field: Sobol dimension %d out of supported range 1..%d", dim, len(joeKuo)+1))
	}
	s := &Sobol{
		dim: dim,
		x:   make([]uint32, dim),
		v:   make([][]uint32, dim),
	}
	for d := 0; d < dim; d++ {
		v := make([]uint32, sobolBits)
		if d == 0 {
			// First dimension: van der Corput, m_k = 1 for all k.
			for k := 0; k < sobolBits; k++ {
				v[k] = 1 << (sobolBits - 1 - k)
			}
		} else {
			row := joeKuo[d-1]
			sdeg := int(row[0])
			a := row[1]
			m := row[2:]
			for k := 0; k < sdeg && k < sobolBits; k++ {
				v[k] = m[k] << (sobolBits - 1 - k)
			}
			for k := sdeg; k < sobolBits; k++ {
				vk := v[k-sdeg] ^ (v[k-sdeg] >> uint(sdeg))
				for i := 1; i < sdeg; i++ {
					if (a>>uint(sdeg-1-i))&1 == 1 {
						vk ^= v[k-i]
					}
				}
				v[k] = vk
			}
		}
		s.v[d] = v
	}
	return s
}

// Next returns the next point in [0,1)^dim. The first returned point is the
// origin, matching the canonical Sobol sequence.
func (s *Sobol) Next() []float64 {
	p := make([]float64, s.dim)
	for d := 0; d < s.dim; d++ {
		p[d] = float64(s.x[d]) / (1 << sobolBits)
	}
	// Advance state with the Gray-code rule: flip direction number c, where
	// c is the index of the lowest zero bit of the counter.
	c := 0
	for n := s.n; n&1 == 1; n >>= 1 {
		c++
	}
	for d := 0; d < s.dim; d++ {
		s.x[d] ^= s.v[d][c]
	}
	s.n++
	return p
}
