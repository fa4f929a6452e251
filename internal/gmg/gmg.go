package gmg

import (
	"fmt"
	"math"

	"mgdiffnet/internal/fem"
	"mgdiffnet/internal/sparse"
	"mgdiffnet/internal/tensor"
)

// CycleType selects the grid schedule, mirroring Figure 3 of the paper.
type CycleType int

// The four cycle types studied in the paper.
const (
	VCycle CycleType = iota
	WCycle
	FCycle
	HalfVCycle
)

// String implements fmt.Stringer.
func (c CycleType) String() string {
	switch c {
	case VCycle:
		return "V"
	case WCycle:
		return "W"
	case FCycle:
		return "F"
	case HalfVCycle:
		return "Half-V"
	default:
		return fmt.Sprintf("CycleType(%d)", int(c))
	}
}

// Options configures a multigrid solve.
type Options struct {
	// Cycle is the grid schedule (default V).
	Cycle CycleType
	// Levels caps the hierarchy depth; 0 means coarsen until ~5 nodes/dim.
	Levels int
	// PreSmooth / PostSmooth are Gauss–Seidel sweep counts (defaults 2/2).
	// The Half-V cycle ignores PreSmooth by definition.
	PreSmooth, PostSmooth int
	// Tol is the relative residual target (default 1e-8).
	Tol float64
	// MaxCycles bounds the outer iteration (default 50).
	MaxCycles int
}

func (o *Options) defaults() {
	if o.PreSmooth == 0 {
		o.PreSmooth = 2
	}
	if o.PostSmooth == 0 {
		o.PostSmooth = 2
	}
	if o.Tol == 0 {
		o.Tol = 1e-8
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 50
	}
}

// Stats reports the outcome of a multigrid solve.
type Stats struct {
	Cycles    int
	Residual  float64 // final relative residual
	Converged bool
	Levels    int
}

// level is one rung of the grid hierarchy.
type level struct {
	g grid
	a *sparse.CSR
	b []float64 // finest level only: assembled RHS with BC lifting
}

// Solver solves K(ν)u = b with geometric multigrid in 2 or 3 dimensions.
type Solver struct {
	Opt    Options
	shape  []int // ν's shape, which Solve returns
	levels []*level
}

// NewSolver builds the hierarchy for a nodal diffusivity field of shape
// [R, R] or [R, R, R]; R must be 2^k+1 for exact nested coarsening.
func NewSolver(nu *tensor.Tensor, opt Options) *Solver {
	opt.defaults()
	res := nu.Dim(0)
	checkGridRes(res)
	if !nu.ShapeIs(res, res) && !nu.ShapeIs(res, res, res) {
		panic(fmt.Sprintf("gmg: ν must have shape [R, R] or [R, R, R], got %v", nu.Shape()))
	}
	s := &Solver{Opt: opt, shape: append([]int(nil), nu.Shape()...)}
	g, cur := grid{nu.Len() / (res * res), res, res}, nu.Data
	for {
		a, b := assemble(cur, g)
		lv := &level{g: g, a: a}
		if len(s.levels) == 0 {
			lv.b = b
		}
		s.levels = append(s.levels, lv)
		if done(len(s.levels), g.w, opt.Levels) {
			break
		}
		cur, g = inject(cur, g), g.coarse()
	}
	return s
}

// assemble builds one level's FEM system. It is the package's only
// dimension branch: a grid one plane deep is a 2D field.
func assemble(nu []float64, g grid) (*sparse.CSR, []float64) {
	if g.d == 1 {
		return fem.Assemble2D(fem.NewPoisson2D(g.w), tensor.FromSlice(nu, g.h, g.w))
	}
	return fem.Assemble3D(fem.NewPoisson3D(g.w), tensor.FromSlice(nu, g.d, g.h, g.w))
}

func checkGridRes(res int) {
	n := res - 1
	if res < 3 || n&(n-1) != 0 {
		panic(fmt.Sprintf("gmg: resolution must be 2^k+1 with k>=1, got %d", res))
	}
}

func done(nLevels, res, maxLevels int) bool {
	if maxLevels > 0 && nLevels >= maxLevels {
		return true
	}
	return (res+1)/2 < 5 // next level would be tiny
}

// NumLevels returns the hierarchy depth.
func (s *Solver) NumLevels() int { return len(s.levels) }

// Solve runs multigrid cycles until convergence and returns the solution
// field, shaped like ν, plus statistics.
func (s *Solver) Solve() (*tensor.Tensor, Stats) {
	top := s.levels[0]
	n := top.a.Size()
	x := make([]float64, n)
	// Start from the Dirichlet-consistent zero guess: identity rows of the
	// assembled system pin the boundary after the first smoothing pass, but
	// setting them now keeps the initial residual meaningful.
	seedBC(x, top.g)

	b := top.b
	bn := norm2(b)
	if bn == 0 {
		bn = 1
	}
	r := make([]float64, n)
	st := Stats{Levels: len(s.levels)}
	for c := 0; c < s.Opt.MaxCycles; c++ {
		s.cycle(0, b, x, s.Opt.Cycle, true)
		st.Cycles = c + 1
		top.a.Apply(r, x)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		st.Residual = norm2(r) / bn
		if st.Residual <= s.Opt.Tol {
			st.Converged = true
			break
		}
	}
	return tensor.FromSlice(x, s.shape...), st
}

// seedBC writes the Dirichlet value u = 1 at the start (ix = 0) of every
// x-row.
func seedBC(x []float64, g grid) {
	for row := 0; row < g.d*g.h; row++ {
		x[row*g.w] = 1
	}
}

// cycle performs one multigrid cycle of the requested type at the given
// level. firstDescent distinguishes the F-cycle's initial descent and the
// Half-V cycle's smoothing-free restriction phase.
func (s *Solver) cycle(lv int, b, x []float64, ct CycleType, firstDescent bool) {
	l := s.levels[lv]
	if lv == len(s.levels)-1 {
		// Coarsest grid: solve (nearly) exactly.
		sparse.CG(l.a, b, x, 1e-12, 4*l.a.Size())
		return
	}

	preSweeps := s.Opt.PreSmooth
	if ct == HalfVCycle && firstDescent {
		// "No smoothing is done before the coarsest grid layer."
		preSweeps = 0
	}
	if preSweeps > 0 {
		sparse.GaussSeidel(l.a, b, x, preSweeps)
	}

	// Residual and its restriction.
	n := l.a.Size()
	r := make([]float64, n)
	l.a.Apply(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	maskDirichlet(r, l.g)
	gc := s.levels[lv+1].g
	rc := restrict(r, l.g)
	maskDirichlet(rc, gc)

	ec := make([]float64, len(rc))
	switch ct {
	case WCycle:
		s.cycle(lv+1, rc, ec, WCycle, firstDescent)
		s.cycle(lv+1, rc, ec, WCycle, false)
	case FCycle:
		s.cycle(lv+1, rc, ec, FCycle, firstDescent)
		s.cycle(lv+1, rc, ec, VCycle, false)
	default: // V and Half-V recurse once
		s.cycle(lv+1, rc, ec, ct, firstDescent)
	}

	e := prolong(ec, gc)
	maskDirichlet(e, l.g)
	for i := range x {
		x[i] += e[i]
	}
	sparse.GaussSeidel(l.a, b, x, s.Opt.PostSmooth)
}

// maskDirichlet zeroes both ends (ix = 0 and ix = w−1) of every x-row,
// where corrections must vanish.
func maskDirichlet(v []float64, g grid) {
	for row := 0; row < g.d*g.h; row++ {
		v[row*g.w] = 0
		v[row*g.w+g.w-1] = 0
	}
}

func norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
