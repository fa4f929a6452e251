// Package sparse provides the serial numerical linear algebra the FEM
// comparator is built on: CSR matrices assembled from triplets, a
// matrix-free conjugate-gradient solver, and the Gauss–Seidel smoother
// used inside the geometric multigrid solver.
package sparse

import (
	"fmt"
	"math"
	"sort"

	"mgdiffnet/internal/tensor"
)

// Operator is anything that can apply a square linear map y = A·x.
type Operator interface {
	// Apply writes A·x into y. x and y must not alias.
	Apply(y, x []float64)
	// Size returns the dimension of the operator.
	Size() int
}

// OpFunc adapts a function to the Operator interface.
type OpFunc struct {
	N int
	F func(y, x []float64)
}

// Apply implements Operator.
func (o OpFunc) Apply(y, x []float64) { o.F(y, x) }

// Size implements Operator.
func (o OpFunc) Size() int { return o.N }

// COO is a builder for sparse matrices in triplet form. Duplicate entries
// are summed on conversion, matching FEM assembly semantics.
type COO struct {
	n    int
	rows []int32
	cols []int32
	vals []float64
}

// NewCOO creates a triplet builder for an n×n matrix.
func NewCOO(n int) *COO { return &COO{n: n} }

// Add accumulates v at (i, j).
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.n || j < 0 || j >= c.n {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of bounds for n=%d", i, j, c.n))
	}
	c.rows = append(c.rows, int32(i))
	c.cols = append(c.cols, int32(j))
	c.vals = append(c.vals, v)
}

// NNZ returns the number of accumulated triplets (before deduplication).
func (c *COO) NNZ() int { return len(c.vals) }

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	N      int
	RowPtr []int32
	Col    []int32
	Val    []float64
}

// ToCSR converts the triplets to CSR, summing duplicates.
func (c *COO) ToCSR() *CSR {
	type entry struct {
		col int32
		val float64
	}
	perRow := make([][]entry, c.n)
	for k := range c.vals {
		r := c.rows[k]
		perRow[r] = append(perRow[r], entry{c.cols[k], c.vals[k]})
	}
	m := &CSR{N: c.n, RowPtr: make([]int32, c.n+1)}
	for r := 0; r < c.n; r++ {
		es := perRow[r]
		sort.Slice(es, func(a, b int) bool { return es[a].col < es[b].col })
		var last int32 = -1
		for _, e := range es {
			if e.col == last {
				m.Val[len(m.Val)-1] += e.val
				continue
			}
			m.Col = append(m.Col, e.col)
			m.Val = append(m.Val, e.val)
			last = e.col
		}
		m.RowPtr[r+1] = int32(len(m.Val))
	}
	return m
}

// Apply implements Operator with a parallel row sweep.
func (m *CSR) Apply(y, x []float64) {
	tensor.Parallel(m.N, len(m.Val)/max(m.N, 1), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			s := 0.0
			for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
				s += m.Val[k] * x[m.Col[k]]
			}
			y[r] = s
		}
	})
}

// Size implements Operator.
func (m *CSR) Size() int { return m.N }

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.Val) }

// CGResult reports the outcome of a conjugate-gradient solve.
type CGResult struct {
	Iterations  int
	Residual    float64 // final ‖b − Ax‖₂
	RelResidual float64 // Residual / ‖b‖₂ (‖b‖ = 0 counts as 1): what tol bounds
	Converged   bool
}

// refreshEvery is how often CG replaces the recurrence residual with the
// explicitly computed true residual b − Ax. The recurrence drifts from the
// true residual by accumulated rounding on long ill-conditioned runs;
// periodic replacement bounds the drift at the cost of one extra operator
// application per interval.
const refreshEvery = 50

// CG solves A·x = b for symmetric positive-definite A, starting from the
// content of x. It stops when ‖r‖ ≤ tol·‖b‖ or after maxIter iterations.
// Convergence is certified on the true residual b − Ax: the cheap
// recurrence residual is only a hint, confirmed (and refreshed every
// refreshEvery iterations) against an explicit recomputation, so the
// Converged flag and the reported Residual stay honest on ill-conditioned
// systems — this is the solver behind every fem.Solve reference field.
func CG(a Operator, b, x []float64, tol float64, maxIter int) CGResult {
	n := a.Size()
	if len(b) != n || len(x) != n {
		panic("sparse: CG size mismatch")
	}
	r := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	trueResidual := func() float64 {
		a.Apply(ap, x)
		for i := range r {
			r[i] = b[i] - ap[i]
		}
		return math.Sqrt(dot(r, r))
	}

	rn := trueResidual()
	copy(p, r)
	rs := dot(r, r)
	bn := math.Sqrt(dot(b, b))
	if bn == 0 {
		bn = 1
	}
	res := CGResult{Residual: rn}
	done := func(converged bool) CGResult {
		res.RelResidual, res.Converged = res.Residual/bn, converged
		return res
	}
	if rn <= tol*bn {
		return done(true)
	}
	for it := 0; it < maxIter; it++ {
		a.Apply(ap, p)
		alpha := rs / dot(p, ap)
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		res.Iterations = it + 1
		rsNew := dot(r, r)
		rn = math.Sqrt(rsNew)
		if rn <= tol*bn || (it+1)%refreshEvery == 0 {
			// Residual replacement: r becomes b − Ax, so the recurrence
			// scalar must be recomputed from the replaced residual.
			rn = trueResidual()
			rsNew = dot(r, r)
			res.Residual = rn
			if rn <= tol*bn {
				return done(true)
			}
		}
		res.Residual = rn
		beta := rsNew / rs
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rs = rsNew
	}
	res.Residual = trueResidual()
	return done(res.Residual <= tol*bn)
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// GaussSeidel performs forward Gauss–Seidel sweeps in place.
func GaussSeidel(m *CSR, b, x []float64, sweeps int) {
	for s := 0; s < sweeps; s++ {
		for r := 0; r < m.N; r++ {
			sum := b[r]
			var diag float64
			for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
				c := int(m.Col[k])
				if c == r {
					diag = m.Val[k]
					continue
				}
				sum -= m.Val[k] * x[c]
			}
			if diag != 0 {
				x[r] = sum / diag
			}
		}
	}
}
