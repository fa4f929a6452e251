package fem

import (
	"math"
	"math/rand"
	"testing"

	"mgdiffnet/internal/field"
	"mgdiffnet/internal/tensor"
)

// With ν ≡ 1 the exact solution of Eq. 6–9 is u = 1 − x, which bilinear
// elements represent exactly; its energy is ½∫|∇u|² = ½.
func TestEnergyOfExactSolution2D(t *testing.T) {
	for _, res := range []int{3, 9, 17, 33} {
		p := NewPoisson2D(res)
		u := p.BoundaryField() // 1 − x
		nu := tensor.Full(1, res, res)
		if got := p.Energy(u, nu); math.Abs(got-0.5) > 1e-12 {
			t.Fatalf("res %d: energy %v want 0.5", res, got)
		}
	}
}

func TestEnergyOfConstantFieldIsZero(t *testing.T) {
	p := NewPoisson2D(9)
	u := tensor.Full(0.7, 9, 9)
	nu := tensor.Full(2, 9, 9)
	if got := p.Energy(u, nu); math.Abs(got) > 1e-14 {
		t.Fatalf("constant field energy %v want 0", got)
	}
}

func TestEnergyScalesLinearlyWithNu(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const res = 9
	p := NewPoisson2D(res)
	u := tensor.New(res, res)
	for i := range u.Data {
		u.Data[i] = rng.Float64()
	}
	nu1 := tensor.Full(1, res, res)
	nu3 := tensor.Full(3, res, res)
	e1, e3 := p.Energy(u, nu1), p.Energy(u, nu3)
	if math.Abs(e3-3*e1) > 1e-10*e1 {
		t.Fatalf("energy not linear in nu: %v vs 3*%v", e3, e1)
	}
}

func TestEnergyGradMatchesFiniteDifference2D(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const res = 7
	p := NewPoisson2D(res)
	u := tensor.New(res, res)
	nu := tensor.New(res, res)
	for i := range u.Data {
		u.Data[i] = rng.Float64()
		nu.Data[i] = 0.5 + rng.Float64()
	}
	g := tensor.New(res, res)
	p.AddEnergyGrad(u, nu, g)
	const eps = 1e-6
	for i := 0; i < res*res; i += 3 {
		orig := u.Data[i]
		u.Data[i] = orig + eps
		ep := p.Energy(u, nu)
		u.Data[i] = orig - eps
		em := p.Energy(u, nu)
		u.Data[i] = orig
		num := (ep - em) / (2 * eps)
		if math.Abs(num-g.Data[i]) > 1e-6*(1+math.Abs(num)) {
			t.Fatalf("grad[%d]: analytic %v numeric %v", i, g.Data[i], num)
		}
	}
}

func TestApplyIsSymmetric2D(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const res = 9
	p := NewPoisson2D(res)
	nu := tensor.New(res, res)
	for i := range nu.Data {
		nu.Data[i] = 0.5 + rng.Float64()
	}
	u := tensor.New(res, res)
	v := tensor.New(res, res)
	for i := range u.Data {
		u.Data[i] = rng.NormFloat64()
		v.Data[i] = rng.NormFloat64()
	}
	ku := tensor.New(res, res)
	kv := tensor.New(res, res)
	p.Apply(u, nu, ku)
	p.Apply(v, nu, kv)
	lhs, rhs := ku.Dot(v), u.Dot(kv)
	if math.Abs(lhs-rhs) > 1e-10*(1+math.Abs(lhs)) {
		t.Fatalf("K not symmetric: %v vs %v", lhs, rhs)
	}
}

func TestApplyPositiveSemidefinite(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const res = 9
	p := NewPoisson2D(res)
	nu := tensor.Full(1, res, res)
	for trial := 0; trial < 20; trial++ {
		u := tensor.New(res, res)
		for i := range u.Data {
			u.Data[i] = rng.NormFloat64()
		}
		ku := tensor.New(res, res)
		p.Apply(u, nu, ku)
		if q := u.Dot(ku); q < -1e-12 {
			t.Fatalf("quadratic form negative: %v", q)
		}
	}
}

func TestSolve2DConstantNu(t *testing.T) {
	const res = 17
	nu := tensor.Full(1, res, res)
	u, cg := Solve(nu, 1e-10, 2000)
	if !cg.Converged {
		t.Fatalf("CG did not converge: %+v", cg)
	}
	want := NewPoisson2D(res).BoundaryField()
	if d := u.RMSE(want); d > 1e-8 {
		t.Fatalf("solution RMSE %v from 1-x", d)
	}
}

func TestSolve2DVariableNuProperties(t *testing.T) {
	const res = 33
	w := field.Omega{0.3105, 1.5386, 0.0932, -1.2442}
	nu := field.Raster2D(w, res)
	u, cg := Solve(nu, 1e-9, 5000)
	if !cg.Converged {
		t.Fatalf("CG did not converge: %+v", cg)
	}
	p := NewPoisson2D(res)
	// Dirichlet faces are exact.
	for iy := 0; iy < res; iy++ {
		if u.At(iy, 0) != 1 || u.At(iy, res-1) != 0 {
			t.Fatalf("BC violated at row %d: %v, %v", iy, u.At(iy, 0), u.At(iy, res-1))
		}
	}
	// Discrete maximum principle (no sources): solution within [0, 1].
	if u.Min() < -1e-8 || u.Max() > 1+1e-8 {
		t.Fatalf("solution escapes [0,1]: [%v, %v]", u.Min(), u.Max())
	}
	// Residual is tiny on the interior.
	r := tensor.New(res, res)
	p.Apply(u, nu, r)
	p.MaskInterior(r)
	if r.AbsMax() > 1e-7 {
		t.Fatalf("interior residual %v", r.AbsMax())
	}
}

// The Dirichlet-energy minimality of the solution: J(u*) ≤ J(u) for every
// admissible u (right boundary conditions, arbitrary interior).
func TestSolutionMinimizesEnergy(t *testing.T) {
	const res = 17
	rng := rand.New(rand.NewSource(5))
	w := field.Omega{0.6681, 1.5354, 0.7644, -2.9709}
	nu := field.Raster2D(w, res)
	uStar, _ := Solve(nu, 1e-10, 5000)
	p := NewPoisson2D(res)
	jStar := p.Energy(uStar, nu)
	for trial := 0; trial < 10; trial++ {
		u := uStar.Clone()
		for i := range u.Data {
			u.Data[i] += 0.1 * rng.NormFloat64()
		}
		p.ApplyBC(u)
		if j := p.Energy(u, nu); j < jStar-1e-10 {
			t.Fatalf("perturbed energy %v below optimum %v", j, jStar)
		}
	}
}

func TestEnergyOfExactSolution3D(t *testing.T) {
	const res = 9
	p := NewPoisson3D(res)
	u := p.BoundaryField()
	nu := tensor.Full(1, res, res, res)
	if got := p.Energy(u, nu); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("3D energy %v want 0.5", got)
	}
}

func TestEnergyGradMatchesFiniteDifference3D(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const res = 5
	p := NewPoisson3D(res)
	u := tensor.New(res, res, res)
	nu := tensor.New(res, res, res)
	for i := range u.Data {
		u.Data[i] = rng.Float64()
		nu.Data[i] = 0.5 + rng.Float64()
	}
	g := tensor.New(res, res, res)
	p.AddEnergyGrad(u, nu, g)
	const eps = 1e-6
	for i := 0; i < res*res*res; i += 7 {
		orig := u.Data[i]
		u.Data[i] = orig + eps
		ep := p.Energy(u, nu)
		u.Data[i] = orig - eps
		em := p.Energy(u, nu)
		u.Data[i] = orig
		num := (ep - em) / (2 * eps)
		if math.Abs(num-g.Data[i]) > 1e-6*(1+math.Abs(num)) {
			t.Fatalf("grad[%d]: analytic %v numeric %v", i, g.Data[i], num)
		}
	}
}

func TestSolve3DConstantNu(t *testing.T) {
	const res = 9
	nu := tensor.Full(1, res, res, res)
	u, cg := Solve(nu, 1e-10, 3000)
	if !cg.Converged {
		t.Fatalf("CG did not converge: %+v", cg)
	}
	want := NewPoisson3D(res).BoundaryField()
	if d := u.RMSE(want); d > 1e-8 {
		t.Fatalf("solution RMSE %v from 1-x", d)
	}
}

// A diffusivity that does not vary along z makes the 3D problem the 2D
// one extruded: only the x faces carry Dirichlet data, so every z-slice of
// the trilinear solution must be the bilinear 2D solution.
func TestSolve3DOfExtrudedFieldIsSolve2D(t *testing.T) {
	const res = 9
	nu2 := field.Raster2D(field.Omega{0.5, -1, 0.75, 0.25}, res)
	nu3 := tensor.New(res, res, res)
	for z := 0; z < res; z++ {
		copy(nu3.Data[z*res*res:], nu2.Data)
	}
	u2, cg2 := Solve(nu2, 1e-12, 5000)
	u3, cg3 := Solve(nu3, 1e-12, 5000)
	if !cg2.Converged || !cg3.Converged {
		t.Fatalf("CG did not converge: 2D %+v, 3D %+v", cg2, cg3)
	}
	for z := 0; z < res; z++ {
		for i, want := range u2.Data {
			if got := u3.Data[z*res*res+i]; math.Abs(got-want) > 1e-9 {
				t.Fatalf("slice z=%d node %d: 3D %v, 2D %v", z, i, got, want)
			}
		}
	}
}

func TestAssembledMatchesMatrixFree2D(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const res = 9
	p := NewPoisson2D(res)
	w := field.Omega{1, -0.5, 0.25, 2}
	nu := field.Raster2D(w, res)
	m, _ := Assemble2D(p, nu)

	// For x supported on the interior, CSR·x must equal the masked
	// matrix-free apply on interior rows.
	x := tensor.New(res, res)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	p.MaskInterior(x)
	yCSR := make([]float64, res*res)
	m.Apply(yCSR, x.Data)
	yMF := tensor.New(res, res)
	p.Apply(x, nu, yMF)
	p.MaskInterior(yMF)
	for iy := 0; iy < res; iy++ {
		for ix := 1; ix < res-1; ix++ {
			i := iy*res + ix
			if math.Abs(yCSR[i]-yMF.Data[i]) > 1e-10*(1+math.Abs(yMF.Data[i])) {
				t.Fatalf("row %d: CSR %v vs matrix-free %v", i, yCSR[i], yMF.Data[i])
			}
		}
	}
}

// BenchmarkAblationMatrixFree is DESIGN.md choice 1: the matrix-free
// operator against assembling the CSR stiffness matrix and applying it,
// and against applying an already assembled one.
func BenchmarkAblationMatrixFree(b *testing.B) {
	const res = 64
	nu := field.Raster2D(field.Omega{0.3105, 1.5386, 0.0932, -1.2442}, res)
	p := NewPoisson2D(res)
	u := p.BoundaryField()
	out := tensor.New(res, res)
	b.Run("MatrixFree", func(b *testing.B) {
		for b.Loop() {
			p.Apply(u, nu, out)
		}
	})
	b.Run("AssembleAndApply", func(b *testing.B) {
		for b.Loop() {
			m, _ := Assemble2D(p, nu)
			m.Apply(out.Data, u.Data)
		}
	})
	b.Run("ApplyOnlyCSR", func(b *testing.B) {
		m, _ := Assemble2D(p, nu)
		for b.Loop() {
			m.Apply(out.Data, u.Data)
		}
	})
}

func TestAssembledSystemSolvesSameSolution2D(t *testing.T) {
	const res = 17
	w := field.Omega{0.3105, 1.5386, 0.0932, -1.2442}
	nu := field.Raster2D(w, res)
	p := NewPoisson2D(res)
	m, b := Assemble2D(p, nu)

	x := make([]float64, res*res)
	// Plain Gauss-Seidel until tight convergence (small system).
	for it := 0; it < 4000; it++ {
		gaussSeidelOnce(m, b, x)
	}
	uCG, _ := Solve(nu, 1e-11, 5000)
	xT := tensor.FromSlice(x, res, res)
	if d := xT.RMSE(uCG); d > 1e-5 {
		t.Fatalf("assembled vs matrix-free solutions differ: RMSE %v", d)
	}
}

func TestAssembled3DMatchesMatrixFree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const res = 5
	p := NewPoisson3D(res)
	w := field.Omega{0.5, -1, 1.5, -0.25}
	nu := field.Raster3D(w, res)
	m, _ := Assemble3D(p, nu)
	x := tensor.New(res, res, res)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	p.MaskInterior(x)
	yCSR := make([]float64, res*res*res)
	m.Apply(yCSR, x.Data)
	yMF := tensor.New(res, res, res)
	p.Apply(x, nu, yMF)
	p.MaskInterior(yMF)
	for i := range yCSR {
		if i%res == 0 || i%res == res-1 {
			continue
		}
		if math.Abs(yCSR[i]-yMF.Data[i]) > 1e-10*(1+math.Abs(yMF.Data[i])) {
			t.Fatalf("row %d: CSR %v vs matrix-free %v", i, yCSR[i], yMF.Data[i])
		}
	}
}

func gaussSeidelOnce(m interface {
	Size() int
	Apply(y, x []float64)
}, b, x []float64) {
	// Local helper: one unweighted Jacobi-like sweep using Apply; coarse but
	// adequate for tiny test systems. Implemented via residual correction
	// with a fixed damping factor.
	n := m.Size()
	r := make([]float64, n)
	m.Apply(r, x)
	for i := 0; i < n; i++ {
		x[i] += 0.25 * (b[i] - r[i])
	}
}

func TestEnergyLossGradientZeroAtDirichletNodes(t *testing.T) {
	l := NewEnergyLoss(2)
	const res = 8
	rng := rand.New(rand.NewSource(9))
	pred := tensor.New(2, 1, res, res)
	nu := tensor.New(2, 1, res, res)
	for i := range pred.Data {
		pred.Data[i] = rng.Float64()
		nu.Data[i] = 0.5 + rng.Float64()
	}
	_, g := l.Eval(pred, nu)
	for s := 0; s < 2; s++ {
		for iy := 0; iy < res; iy++ {
			if g.At(s, 0, iy, 0) != 0 || g.At(s, 0, iy, res-1) != 0 {
				t.Fatal("gradient leaked onto Dirichlet nodes")
			}
		}
	}
}

func TestEnergyLossGradMatchesFiniteDifference(t *testing.T) {
	l := NewEnergyLoss(2)
	const res = 6
	rng := rand.New(rand.NewSource(10))
	pred := tensor.New(1, 1, res, res)
	nu := tensor.New(1, 1, res, res)
	for i := range pred.Data {
		pred.Data[i] = rng.Float64()
		nu.Data[i] = 0.5 + rng.Float64()
	}
	_, g := l.Eval(pred, nu)
	const eps = 1e-6
	for i := 0; i < pred.Len(); i += 2 {
		orig := pred.Data[i]
		pred.Data[i] = orig + eps
		lp, _ := l.Eval(pred, nu)
		pred.Data[i] = orig - eps
		lm, _ := l.Eval(pred, nu)
		pred.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-g.Data[i]) > 1e-5*(1+math.Abs(num)) {
			t.Fatalf("loss grad[%d]: analytic %v numeric %v", i, g.Data[i], num)
		}
	}
}

func TestEnergyLossBatchMean(t *testing.T) {
	l := NewEnergyLoss(2)
	const res = 8
	rng := rand.New(rand.NewSource(11))
	one := tensor.New(1, 1, res, res)
	nuOne := tensor.New(1, 1, res, res)
	for i := range one.Data {
		one.Data[i] = rng.Float64()
		nuOne.Data[i] = 0.5 + rng.Float64()
	}
	// Batch of two identical samples must give the same mean loss.
	two := tensor.New(2, 1, res, res)
	nuTwo := tensor.New(2, 1, res, res)
	copy(two.Data[:one.Len()], one.Data)
	copy(two.Data[one.Len():], one.Data)
	copy(nuTwo.Data[:one.Len()], nuOne.Data)
	copy(nuTwo.Data[one.Len():], nuOne.Data)
	l1, g1 := l.Eval(one, nuOne)
	l2, g2 := l.Eval(two, nuTwo)
	if math.Abs(l1-l2) > 1e-12*(1+math.Abs(l1)) {
		t.Fatalf("batch mean broken: %v vs %v", l1, l2)
	}
	// Mean semantics: each per-sample gradient in the batch of two carries
	// weight 1/2, so it is half the single-sample gradient.
	for i := 0; i < g1.Len(); i++ {
		if math.Abs(g1.Data[i]-2*g2.Data[i]) > 1e-12 {
			t.Fatal("batch gradient not per-sample mean")
		}
	}
}

func TestEnergyLossMinimizedByFEMSolution(t *testing.T) {
	l := NewEnergyLoss(2)
	const res = 16
	w := field.Omega{0.2838, -2.3550, 2.9574, -1.8963}
	nuField := field.Raster2D(w, res)
	uStar, _ := Solve(nuField, 1e-10, 5000)

	nu := tensor.New(1, 1, res, res)
	copy(nu.Data, nuField.Data)
	predStar := tensor.New(1, 1, res, res)
	copy(predStar.Data, uStar.Data)
	lossStar, _ := l.Eval(predStar, nu)

	rng := rand.New(rand.NewSource(12))
	pred := tensor.New(1, 1, res, res)
	for i := range pred.Data {
		pred.Data[i] = rng.Float64()
	}
	lossRand, _ := l.Eval(pred, nu)
	if lossStar >= lossRand {
		t.Fatalf("solution loss %v not below random loss %v", lossStar, lossRand)
	}
}

func TestEnergyLossWithBC(t *testing.T) {
	l := NewEnergyLoss(2)
	const res = 8
	pred := tensor.Full(0.5, 1, 1, res, res)
	out := l.WithBC(pred)
	for iy := 0; iy < res; iy++ {
		if out.At(0, 0, iy, 0) != 1 || out.At(0, 0, iy, res-1) != 0 {
			t.Fatal("WithBC did not impose boundary values")
		}
	}
	// Interior untouched.
	if out.At(0, 0, 3, 3) != 0.5 {
		t.Fatal("WithBC modified interior")
	}
	// Original must be unmodified.
	if pred.At(0, 0, 0, 0) != 0.5 {
		t.Fatal("WithBC mutated its input")
	}
}

func TestEnergyLoss3D(t *testing.T) {
	l := NewEnergyLoss(3)
	const res = 6
	rng := rand.New(rand.NewSource(13))
	pred := tensor.New(1, 1, res, res, res)
	nu := tensor.New(1, 1, res, res, res)
	for i := range pred.Data {
		pred.Data[i] = rng.Float64()
		nu.Data[i] = 0.5 + rng.Float64()
	}
	loss, g := l.Eval(pred, nu)
	if loss <= 0 || math.IsNaN(loss) {
		t.Fatalf("3D loss %v", loss)
	}
	const eps = 1e-6
	for i := 0; i < pred.Len(); i += 31 {
		orig := pred.Data[i]
		pred.Data[i] = orig + eps
		lp, _ := l.Eval(pred, nu)
		pred.Data[i] = orig - eps
		lm, _ := l.Eval(pred, nu)
		pred.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-g.Data[i]) > 1e-5*(1+math.Abs(num)) {
			t.Fatalf("3D loss grad[%d]: analytic %v numeric %v", i, g.Data[i], num)
		}
	}
}

func TestBadResolutionPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"p2d":  func() { NewPoisson2D(1) },
		"p3d":  func() { NewPoisson3D(0) },
		"loss": func() { NewEnergyLoss(4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// Mesh-convergence: the discrete energy of the FEM solution converges
// monotonically from below as the grid refines (nested FE spaces give
// J_h ≤ J_{h/2} ≤ J for the minimum-energy problem with these BCs...
// in fact for the *solution* energy, coarser nested spaces UNDERestimate
// the true Dirichlet energy). Successive differences must shrink.
func TestEnergyMeshConvergence(t *testing.T) {
	w := field.Omega{0.6681, 1.5354, 0.7644, -2.9709}
	var energies []float64
	for _, res := range []int{9, 17, 33, 65} {
		nu := field.Raster2D(w, res)
		u, cg := Solve(nu, 1e-11, 50000)
		if !cg.Converged {
			t.Fatalf("res %d CG failed", res)
		}
		energies = append(energies, NewPoisson2D(res).Energy(u, nu))
	}
	d1 := math.Abs(energies[1] - energies[0])
	d3 := math.Abs(energies[3] - energies[2])
	if d3 > d1 {
		t.Fatalf("energies not converging: %v", energies)
	}
}

// The FEM solution must be stable under small perturbations of ν
// (well-posedness): a 1% coefficient perturbation moves the solution by
// O(1%), not wildly.
func TestSolutionStableUnderNuPerturbation(t *testing.T) {
	const res = 17
	w := field.Omega{0.3105, 1.5386, 0.0932, -1.2442}
	nu := field.Raster2D(w, res)
	u1, _ := Solve(nu, 1e-11, 20000)
	nu2 := nu.Clone()
	nu2.Scale(1.01) // uniform scaling leaves the solution invariant
	u2, _ := Solve(nu2, 1e-11, 20000)
	if d := u1.RMSE(u2); d > 1e-7 {
		t.Fatalf("uniform nu scaling changed the solution by %v", d)
	}
	nu3 := nu.Clone()
	for i := range nu3.Data {
		nu3.Data[i] *= 1 + 0.01*math.Sin(float64(i))
	}
	u3, _ := Solve(nu3, 1e-11, 20000)
	if d := u1.RMSE(u3); d > 0.05 {
		t.Fatalf("1%% nu perturbation moved the solution by %v", d)
	}
}
