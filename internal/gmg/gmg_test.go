package gmg

import (
	"math"
	"math/rand"
	"testing"

	"mgdiffnet/internal/fem"
	"mgdiffnet/internal/field"
	"mgdiffnet/internal/tensor"
)

// TestProlongRestrictAdjoint checks <P c, f> == <c, Pᵀ f> for random
// fields on a grid one plane deep and on a cube: restriction must be the
// exact adjoint of prolongation at both depths.
func TestProlongRestrictAdjoint(t *testing.T) {
	for _, tc := range []struct {
		name string
		gc   grid
		seed int64
	}{{"2D", grid{1, 9, 9}, 1}, {"3D", grid{5, 5, 5}, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			c := make([]float64, tc.gc.size())
			f := make([]float64, tc.gc.fine().size())
			for i := range c {
				c[i] = rng.NormFloat64()
			}
			for i := range f {
				f[i] = rng.NormFloat64()
			}
			lhs := dot(prolong(c, tc.gc), f)
			rhs := dot(c, restrict(f, tc.gc.fine()))
			if math.Abs(lhs-rhs) > 1e-10*(1+math.Abs(lhs)) {
				t.Fatalf("%v: adjoint identity violated: %v vs %v", tc.gc, lhs, rhs)
			}
		})
	}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func TestProlongReproducesLinear2D(t *testing.T) {
	// Bilinear interpolation is exact on linear functions.
	const rc = 5
	c := tensor.New(rc, rc)
	for y := 0; y < rc; y++ {
		for x := 0; x < rc; x++ {
			c.Data[y*rc+x] = 2*float64(x) + 3*float64(y)
		}
	}
	f := prolong(c.Data, grid{1, rc, rc})
	rf := 2*rc - 1
	for y := 0; y < rf; y++ {
		for x := 0; x < rf; x++ {
			want := 2*float64(x)/2 + 3*float64(y)/2
			if math.Abs(f[y*rf+x]-want) > 1e-12 {
				t.Fatalf("prolong(%d,%d)=%v want %v", y, x, f[y*rf+x], want)
			}
		}
	}
}

func TestInjectSamplesEvenNodes(t *testing.T) {
	const rf = 9
	f := tensor.New(rf, rf)
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	c := tensor.FromSlice(inject(f.Data, grid{1, rf, rf}), 5, 5)
	if c.At(2, 3) != f.At(4, 6) {
		t.Fatal("injection index mismatch")
	}
	f3 := tensor.New(5, 5, 5)
	for i := range f3.Data {
		f3.Data[i] = float64(i)
	}
	c3 := tensor.FromSlice(inject(f3.Data, grid{5, 5, 5}), 3, 3, 3)
	if c3.At(1, 1, 1) != f3.At(2, 2, 2) {
		t.Fatal("3D injection mismatch")
	}
}

func TestSolverRejectsBadResolution(t *testing.T) {
	for _, res := range []int{4, 6, 10} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("res %d: expected panic", res)
				}
			}()
			NewSolver(tensor.Full(1, res, res), Options{})
		}()
	}
}

// TestSolverRejectsBadShape: ν must be a square or a cube of one
// resolution; anything else would index past a grid.
func TestSolverRejectsBadShape(t *testing.T) {
	for _, shape := range [][]int{{9}, {9, 17}, {9, 9, 17}, {9, 9, 9, 9}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("shape %v: expected panic", shape)
				}
			}()
			NewSolver(tensor.Full(1, shape...), Options{})
		}()
	}
}

func TestVCycleSolvesConstantNu2D(t *testing.T) {
	const res = 33
	nu := tensor.Full(1, res, res)
	s := NewSolver(nu, Options{Cycle: VCycle, Tol: 1e-9})
	if s.NumLevels() < 3 {
		t.Fatalf("expected a deep hierarchy, got %d levels", s.NumLevels())
	}
	u, st := s.Solve()
	if !st.Converged {
		t.Fatalf("V-cycle did not converge: %+v", st)
	}
	// Exact solution is 1-x.
	p := fem.NewPoisson2D(res)
	if d := u.RMSE(p.BoundaryField()); d > 1e-6 {
		t.Fatalf("solution RMSE %v", d)
	}
}

func TestAllCyclesAgreeOnVariableNu2D(t *testing.T) {
	const res = 33
	w := field.Omega{0.3105, 1.5386, 0.0932, -1.2442}
	nu := field.Raster2D(w, res)
	var ref *tensor.Tensor
	for _, ct := range []CycleType{VCycle, WCycle, FCycle, HalfVCycle} {
		s := NewSolver(nu, Options{Cycle: ct, Tol: 1e-10, MaxCycles: 100})
		u, st := s.Solve()
		if !st.Converged {
			t.Fatalf("%v cycle did not converge: %+v", ct, st)
		}
		if ref == nil {
			ref = u
			continue
		}
		if d := u.RMSE(ref); d > 1e-7 {
			t.Fatalf("%v cycle solution differs from V by %v", ct, d)
		}
	}
}

func TestGMGMatchesCG2D(t *testing.T) {
	const res = 17
	w := field.Omega{0.6681, 1.5354, 0.7644, -2.9709}
	nu := field.Raster2D(w, res)
	uMG, st := NewSolver(nu, Options{Tol: 1e-10, MaxCycles: 60}).Solve()
	if !st.Converged {
		t.Fatalf("MG did not converge: %+v", st)
	}
	uCG, cg := fem.Solve(nu, 1e-11, 5000)
	if !cg.Converged {
		t.Fatalf("CG did not converge")
	}
	if d := uMG.RMSE(uCG); d > 1e-6 {
		t.Fatalf("MG and CG disagree: RMSE %v", d)
	}
}

func TestWCycleConvergesFasterPerCycleThanV(t *testing.T) {
	// The W cycle does strictly more coarse work per cycle, so it needs at
	// most as many cycles as V for the same tolerance.
	const res = 33
	w := field.Omega{1.5, -2, 2.5, -1}
	nu := field.Raster2D(w, res)
	_, stV := NewSolver(nu, Options{Cycle: VCycle, Tol: 1e-9, MaxCycles: 100}).Solve()
	_, stW := NewSolver(nu, Options{Cycle: WCycle, Tol: 1e-9, MaxCycles: 100}).Solve()
	if !stV.Converged || !stW.Converged {
		t.Fatalf("convergence failure: V %+v W %+v", stV, stW)
	}
	if stW.Cycles > stV.Cycles {
		t.Fatalf("W cycles %d > V cycles %d", stW.Cycles, stV.Cycles)
	}
}

func TestVCycleSolves3D(t *testing.T) {
	const res = 9
	w := field.Omega{0.5, -1, 0.75, 0.25}
	nu := field.Raster3D(w, res)
	u, st := NewSolver(nu, Options{Cycle: VCycle, Tol: 1e-9, MaxCycles: 60}).Solve()
	if !st.Converged {
		t.Fatalf("3D V-cycle did not converge: %+v", st)
	}
	uCG, cg := fem.Solve(nu, 1e-10, 5000)
	if !cg.Converged {
		t.Fatal("3D CG failed")
	}
	if d := u.RMSE(uCG); d > 1e-6 {
		t.Fatalf("3D MG vs CG RMSE %v", d)
	}
}

// TestEveryCycleMatchesCG3D holds each cycle type's 3D solve to the
// independent matrix-free CG solution of the same FEM system.
func TestEveryCycleMatchesCG3D(t *testing.T) {
	const res = 9
	nu := field.Raster3D(field.Omega{0.3105, 1.5386, 0.0932, -1.2442}, res)
	uCG, cg := fem.Solve(nu, 1e-11, 5000)
	if !cg.Converged {
		t.Fatalf("3D CG did not converge: %+v", cg)
	}
	for _, ct := range []CycleType{VCycle, WCycle, FCycle, HalfVCycle} {
		t.Run(ct.String(), func(t *testing.T) {
			u, st := NewSolver(nu, Options{Cycle: ct, Tol: 1e-10, MaxCycles: 100}).Solve()
			if !st.Converged {
				t.Fatalf("did not converge: %+v", st)
			}
			if d := u.RMSE(uCG); d > 1e-7 {
				t.Fatalf("3D %v cycle vs CG RMSE %v", ct, d)
			}
		})
	}
}

// A diffusivity that does not vary along z makes the 3D problem the 2D
// one extruded, so every plane of the 3D multigrid solution must be the 2D
// one: the cube and the single plane take the same path through the
// transfers, at depths 9 and 1.
func TestSolve3DOfExtrudedFieldIsSolve2D(t *testing.T) {
	const res, tol = 9, 1e-12
	nu2 := field.Raster2D(field.Omega{0.5, -1, 0.75, 0.25}, res)
	nu3 := tensor.New(res, res, res)
	for z := 0; z < res; z++ {
		copy(nu3.Data[z*res*res:], nu2.Data)
	}
	for _, ct := range []CycleType{VCycle, WCycle, FCycle, HalfVCycle} {
		opt := Options{Cycle: ct, Tol: tol, MaxCycles: 200}
		u2, st2 := NewSolver(nu2, opt).Solve()
		u3, st3 := NewSolver(nu3, opt).Solve()
		if !st2.Converged || !st3.Converged {
			t.Fatalf("%v: did not converge: 2D %+v, 3D %+v", ct, st2, st3)
		}
		for z := 0; z < res; z++ {
			for i, want := range u2.Data {
				if got := u3.Data[z*res*res+i]; math.Abs(got-want) > 1e3*tol {
					t.Fatalf("%v: plane z=%d node %d: 3D %v, 2D %v", ct, z, i, got, want)
				}
			}
		}
	}
}

func TestHalfVCheaperPerCycleThanV(t *testing.T) {
	// Half-V skips pre-smoothing on the descent; with smoothing dominating
	// the cost, each cycle is cheaper. Here we verify it still converges.
	const res = 17
	nu := tensor.Full(2, res, res)
	_, st := NewSolver(nu, Options{Cycle: HalfVCycle, Tol: 1e-9, MaxCycles: 100}).Solve()
	if !st.Converged {
		t.Fatalf("Half-V did not converge: %+v", st)
	}
}

func TestLevelsCapRespected(t *testing.T) {
	const res = 33
	nu := tensor.Full(1, res, res)
	s := NewSolver(nu, Options{Levels: 2})
	if s.NumLevels() != 2 {
		t.Fatalf("levels = %d want 2", s.NumLevels())
	}
}

func TestCycleTypeString(t *testing.T) {
	names := map[CycleType]string{VCycle: "V", WCycle: "W", FCycle: "F", HalfVCycle: "Half-V"}
	for ct, want := range names {
		if ct.String() != want {
			t.Fatalf("%d -> %s want %s", int(ct), ct.String(), want)
		}
	}
	if CycleType(9).String() == "" {
		t.Fatal("unknown cycle type must still render")
	}
}

func TestResidualMonotoneOverCycles(t *testing.T) {
	// Run cycles one at a time by capping MaxCycles and confirm the final
	// residual shrinks as the budget grows.
	const res = 17
	w := field.Omega{2, 1, -1, 0.5}
	nu := field.Raster2D(w, res)
	prev := math.Inf(1)
	for cycles := 1; cycles <= 4; cycles++ {
		_, st := NewSolver(nu, Options{Cycle: VCycle, Tol: 0, MaxCycles: cycles}).Solve()
		if st.Residual > prev*1.001 {
			t.Fatalf("residual grew at %d cycles: %v -> %v", cycles, prev, st.Residual)
		}
		prev = st.Residual
	}
	if prev > 1e-3 {
		t.Fatalf("4 V-cycles left residual %v", prev)
	}
}

// The defining property of multigrid: convergence is (nearly) independent
// of the grid resolution. The V-cycle count to a fixed tolerance must not
// grow appreciably from 17² to 65².
func TestGridIndependentConvergence(t *testing.T) {
	w := field.Omega{0.3105, 1.5386, 0.0932, -1.2442}
	var cycles []int
	for _, res := range []int{17, 33, 65} {
		nu := field.Raster2D(w, res)
		_, st := NewSolver(nu, Options{Cycle: VCycle, Tol: 1e-8, MaxCycles: 100}).Solve()
		if !st.Converged {
			t.Fatalf("res %d did not converge", res)
		}
		cycles = append(cycles, st.Cycles)
	}
	if cycles[2] > 2*cycles[0] {
		t.Fatalf("cycle counts grow with resolution: %v (not h-independent)", cycles)
	}
}

// GMG must also handle high-contrast coefficients (the strongest ω of the
// paper's Table 7 spans three orders of magnitude in ν).
func TestHighContrastCoefficient(t *testing.T) {
	w := field.Omega{0.2838, -2.3550, 2.9574, -1.8963}
	nu := field.Raster2D(w, 33)
	contrast := nu.Max() / nu.Min()
	if contrast < 50 {
		t.Fatalf("test field not high-contrast: %v", contrast)
	}
	u, st := NewSolver(nu, Options{Cycle: WCycle, Tol: 1e-8, MaxCycles: 200}).Solve()
	if !st.Converged {
		t.Fatalf("high-contrast solve failed: %+v", st)
	}
	if u.Min() < -1e-6 || u.Max() > 1+1e-6 {
		t.Fatalf("maximum principle violated: [%v, %v]", u.Min(), u.Max())
	}
}
