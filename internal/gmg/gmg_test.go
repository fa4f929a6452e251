package gmg

import (
	"math"
	"math/rand"
	"testing"

	"mgdiffnet/internal/fem"
	"mgdiffnet/internal/field"
	"mgdiffnet/internal/tensor"
)

func TestProlongRestrictAdjoint2D(t *testing.T) {
	// <P c, f> == <c, Pᵀ f> for random fields: restriction must be the
	// exact adjoint of prolongation.
	rng := rand.New(rand.NewSource(1))
	const rc = 9
	rf := 2*rc - 1
	c := tensor.New(rc, rc)
	f := tensor.New(rf, rf)
	for i := range c.Data {
		c.Data[i] = rng.NormFloat64()
	}
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	pc := prolong2D(c)
	rtf := restrict2D(f)
	lhs := pc.Dot(f)
	rhs := c.Dot(rtf)
	if math.Abs(lhs-rhs) > 1e-10*(1+math.Abs(lhs)) {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestProlongRestrictAdjoint3D(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const rc = 5
	rf := 2*rc - 1
	c := tensor.New(rc, rc, rc)
	f := tensor.New(rf, rf, rf)
	for i := range c.Data {
		c.Data[i] = rng.NormFloat64()
	}
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	lhs := prolong3D(c).Dot(f)
	rhs := c.Dot(restrict3D(f))
	if math.Abs(lhs-rhs) > 1e-10*(1+math.Abs(lhs)) {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
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
	f := prolong2D(c)
	rf := 2*rc - 1
	for y := 0; y < rf; y++ {
		for x := 0; x < rf; x++ {
			want := 2*float64(x)/2 + 3*float64(y)/2
			if math.Abs(f.Data[y*rf+x]-want) > 1e-12 {
				t.Fatalf("prolong(%d,%d)=%v want %v", y, x, f.Data[y*rf+x], want)
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
	c := inject2D(f)
	if c.Dim(0) != 5 {
		t.Fatalf("coarse res %d", c.Dim(0))
	}
	if c.At(2, 3) != f.At(4, 6) {
		t.Fatal("injection index mismatch")
	}
	f3 := tensor.New(5, 5, 5)
	for i := range f3.Data {
		f3.Data[i] = float64(i)
	}
	c3 := inject3D(f3)
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
			NewSolver2D(tensor.Full(1, res, res), Options{})
		}()
	}
}

func TestVCycleSolvesConstantNu2D(t *testing.T) {
	const res = 33
	nu := tensor.Full(1, res, res)
	s := NewSolver2D(nu, Options{Cycle: VCycle, Tol: 1e-9})
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
		s := NewSolver2D(nu, Options{Cycle: ct, Tol: 1e-10, MaxCycles: 100})
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
	uMG, st := NewSolver2D(nu, Options{Tol: 1e-10, MaxCycles: 60}).Solve()
	if !st.Converged {
		t.Fatalf("MG did not converge: %+v", st)
	}
	uCG, cg := fem.Solve2D(nu, 1e-11, 5000)
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
	_, stV := NewSolver2D(nu, Options{Cycle: VCycle, Tol: 1e-9, MaxCycles: 100}).Solve()
	_, stW := NewSolver2D(nu, Options{Cycle: WCycle, Tol: 1e-9, MaxCycles: 100}).Solve()
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
	u, st := NewSolver3D(nu, Options{Cycle: VCycle, Tol: 1e-9, MaxCycles: 60}).Solve()
	if !st.Converged {
		t.Fatalf("3D V-cycle did not converge: %+v", st)
	}
	uCG, cg := fem.Solve3D(nu, 1e-10, 5000)
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
	uCG, cg := fem.Solve3D(nu, 1e-11, 5000)
	if !cg.Converged {
		t.Fatalf("3D CG did not converge: %+v", cg)
	}
	for _, ct := range []CycleType{VCycle, WCycle, FCycle, HalfVCycle} {
		t.Run(ct.String(), func(t *testing.T) {
			u, st := NewSolver3D(nu, Options{Cycle: ct, Tol: 1e-10, MaxCycles: 100}).Solve()
			if !st.Converged {
				t.Fatalf("did not converge: %+v", st)
			}
			if d := u.RMSE(uCG); d > 1e-7 {
				t.Fatalf("3D %v cycle vs CG RMSE %v", ct, d)
			}
		})
	}
}

func TestHalfVCheaperPerCycleThanV(t *testing.T) {
	// Half-V skips pre-smoothing on the descent; with smoothing dominating
	// the cost, each cycle is cheaper. Here we verify it still converges.
	const res = 17
	nu := tensor.Full(2, res, res)
	_, st := NewSolver2D(nu, Options{Cycle: HalfVCycle, Tol: 1e-9, MaxCycles: 100}).Solve()
	if !st.Converged {
		t.Fatalf("Half-V did not converge: %+v", st)
	}
}

func TestLevelsCapRespected(t *testing.T) {
	const res = 33
	nu := tensor.Full(1, res, res)
	s := NewSolver2D(nu, Options{Levels: 2})
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
		_, st := NewSolver2D(nu, Options{Cycle: VCycle, Tol: 0, MaxCycles: cycles}).Solve()
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
		_, st := NewSolver2D(nu, Options{Cycle: VCycle, Tol: 1e-8, MaxCycles: 100}).Solve()
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
	u, st := NewSolver2D(nu, Options{Cycle: WCycle, Tol: 1e-8, MaxCycles: 200}).Solve()
	if !st.Converged {
		t.Fatalf("high-contrast solve failed: %+v", st)
	}
	if u.Min() < -1e-6 || u.Max() > 1+1e-6 {
		t.Fatalf("maximum principle violated: [%v, %v]", u.Min(), u.Max())
	}
}

func TestGalerkinCoarseOperatorSolves(t *testing.T) {
	const res = 33
	w := field.Omega{0.3105, 1.5386, 0.0932, -1.2442}
	nu := field.Raster2D(w, res)
	uG, stG := NewSolver2D(nu, Options{Cycle: VCycle, Tol: 1e-9, MaxCycles: 100, Galerkin: true}).Solve()
	if !stG.Converged {
		t.Fatalf("Galerkin V-cycle did not converge: %+v", stG)
	}
	uR, stR := NewSolver2D(nu, Options{Cycle: VCycle, Tol: 1e-9, MaxCycles: 100}).Solve()
	if !stR.Converged {
		t.Fatalf("rediscretized V-cycle did not converge: %+v", stR)
	}
	// Both hierarchies solve the same fine system: solutions agree.
	if d := uG.RMSE(uR); d > 1e-6 {
		t.Fatalf("Galerkin and rediscretized solutions differ by %v", d)
	}
	// The variational coarse operator must not degrade convergence by much.
	if stG.Cycles > stR.Cycles+3 {
		t.Fatalf("Galerkin needs %d cycles vs rediscretized %d", stG.Cycles, stR.Cycles)
	}
}

func TestGalerkinCoarseMatrixIsSymmetric(t *testing.T) {
	const res = 17
	w := field.Omega{1, -1, 0.5, 0.25}
	nu := field.Raster2D(w, res)
	p := fem.NewPoisson2D(res)
	af, _ := fem.Assemble2D(p, nu)
	ac := galerkinCoarse2D(af, res)
	rc := (res + 1) / 2
	// Check symmetry by dense reconstruction (small system).
	dense := make([][]float64, rc*rc)
	for i := range dense {
		dense[i] = make([]float64, rc*rc)
		for k := ac.RowPtr[i]; k < ac.RowPtr[i+1]; k++ {
			dense[i][ac.Col[k]] = ac.Val[k]
		}
	}
	for i := range dense {
		for j := range dense {
			if math.Abs(dense[i][j]-dense[j][i]) > 1e-12 {
				t.Fatalf("A_c not symmetric at (%d,%d): %v vs %v", i, j, dense[i][j], dense[j][i])
			}
		}
	}
}
