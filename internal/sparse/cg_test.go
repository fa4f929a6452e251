package sparse

import (
	"math"
	"testing"
)

// contrastStencil builds the 1D variable-coefficient diffusion operator
// A_ii = ν_i + ν_{i+1}, A_{i,i±1} = −ν, for a layered coefficient field
// alternating between 1 and the given contrast every 17 cells — a sharp
// high-contrast inclusion pattern like the paper's diffusivity families,
// condensed to 1D so the test stays milliseconds.
func contrastStencil(n int, contrast float64) (*CSR, []float64) {
	nu := make([]float64, n+1)
	for i := range nu {
		if (i/17)%2 == 0 {
			nu[i] = contrast
		} else {
			nu[i] = 1
		}
	}
	coo := NewCOO(n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, nu[i]+nu[i+1])
		if i > 0 {
			coo.Add(i, i-1, -nu[i])
		}
		if i < n-1 {
			coo.Add(i, i+1, -nu[i+1])
		}
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i) * 0.37)
	}
	return coo.ToCSR(), b
}

func residualNorm(a Operator, b, x []float64) float64 {
	y := make([]float64, a.Size())
	a.Apply(y, x)
	s := 0.0
	for i := range y {
		d := b[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// recurrenceCG is CG without residual replacement: it stops on the
// recurrence residual alone. It is kept as the regression baseline that
// shows the high-contrast system below really drifts, so the test of CG's
// true-residual certificate cannot pass vacuously.
func recurrenceCG(a Operator, b, x []float64, tol float64, maxIter int) CGResult {
	n := a.Size()
	r := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)
	a.Apply(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	copy(p, r)
	rs := dot(r, r)
	bn := math.Sqrt(dot(b, b))
	res := CGResult{Residual: math.Sqrt(rs)}
	for it := 0; it < maxIter; it++ {
		a.Apply(ap, p)
		alpha := rs / dot(p, ap)
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		res.Iterations = it + 1
		rsNew := dot(r, r)
		res.Residual = math.Sqrt(rsNew)
		if res.Residual <= tol*bn {
			res.Converged = true
			return res
		}
		for i := range p {
			p[i] = r[i] + rsNew/rs*p[i]
		}
		rs = rsNew
	}
	return res
}

// TestCGTrueResidualOnHighContrast is the regression test for CG's
// convergence certificate on the solver behind every fem.Solve
// reference field: on a system whose recurrence residual keeps shrinking
// long after the attainable true residual has stagnated, Converged must be
// certified on b − Ax, not the drifting recurrence.
func TestCGTrueResidualOnHighContrast(t *testing.T) {
	const n = 200
	const tol = 1e-13
	m, b := contrastStencil(n, 1e8)
	bn := math.Sqrt(dot(b, b))

	x := make([]float64, n)
	res := CG(m, b, x, tol, 4000)
	tr := residualNorm(m, b, x)
	if res.Converged && tr > tol*bn {
		t.Fatalf("CG declared convergence at tol %g but the true residual is %g (tol*|b| = %g)", tol, tr, tol*bn)
	}
	if rel := math.Abs(res.Residual-tr) / tr; rel > 1e-6 {
		t.Fatalf("reported residual %g differs from true residual %g (rel %g)", res.Residual, tr, rel)
	}
}

// TestCGRefusesDriftingRecurrence gives CG a budget long enough for the
// recurrence residual on the 1e8-contrast system to sink below tol·‖b‖
// (about 5 700 iterations), which TestCGTrueResidualOnHighContrast's 4 000
// do not reach. The recurrence-only baseline declares convergence there
// with b − Ax far above the tolerance; CG, which certifies on b − Ax, must
// not.
func TestCGRefusesDriftingRecurrence(t *testing.T) {
	const n = 200
	const tol = 1e-13
	const budget = 8000
	m, b := contrastStencil(n, 1e8)
	bn := math.Sqrt(dot(b, b))

	xOld := make([]float64, n)
	if resOld := recurrenceCG(m, b, xOld, tol, budget); !resOld.Converged {
		t.Fatalf("baseline drifted: recurrence-only CG no longer 'converges' on this system (%+v)", resOld)
	}
	if trOld := residualNorm(m, b, xOld); trOld <= 100*tol*bn {
		t.Fatalf("baseline drifted: true residual %g is too close to tol*|b| %g to show the drift", trOld, tol*bn)
	}

	x := make([]float64, n)
	res := CG(m, b, x, tol, budget)
	if tr := residualNorm(m, b, x); res.Converged && tr > tol*bn {
		t.Fatalf("CG declared convergence at tol %g but the true residual is %g (tol*|b| = %g)", tol, tr, tol*bn)
	}
}

// TestCGConvergesAtAttainableTolerance checks the flip side: with a
// tolerance the system can actually meet, CG converges and the certificate
// is real.
func TestCGConvergesAtAttainableTolerance(t *testing.T) {
	const n = 200
	const tol = 1e-4
	m, b := contrastStencil(n, 1e8)
	bn := math.Sqrt(dot(b, b))

	x := make([]float64, n)
	res := CG(m, b, x, tol, 20000)
	if !res.Converged {
		t.Fatalf("CG failed at attainable tol: %+v", res)
	}
	if tr := residualNorm(m, b, x); tr > tol*bn {
		t.Fatalf("convergence certificate is false: true residual %g > tol*|b| %g", tr, tol*bn)
	}
}

// TestCGResidualIsTrueOnMaxIter pins the honest-failure path: when the
// iteration budget runs out, the reported residual is the explicitly
// computed b − Ax, not the recurrence value.
func TestCGResidualIsTrueOnMaxIter(t *testing.T) {
	const n = 200
	m, b := contrastStencil(n, 1e10)
	x := make([]float64, n)
	res := CG(m, b, x, 1e-14, 37) // deliberately tiny budget
	if res.Converged {
		t.Fatalf("unexpected convergence: %+v", res)
	}
	tr := residualNorm(m, b, x)
	if rel := math.Abs(res.Residual-tr) / tr; rel > 1e-6 {
		t.Fatalf("reported residual %g is not the true residual %g", res.Residual, tr)
	}
}

// scaledLap builds D·tridiag(-1,2,-1)·D with a diagonal scaling D spanning
// three decades — an ill-conditioned SPD system.
func scaledLap(n int) *CSR {
	coo := NewCOO(n)
	scale := func(i int) float64 { return math.Pow(10, 3*float64(i)/float64(n)) }
	for i := 0; i < n; i++ {
		si := scale(i)
		coo.Add(i, i, 2*si*si)
		if i > 0 {
			coo.Add(i, i-1, -si*scale(i-1))
		}
		if i < n-1 {
			coo.Add(i, i+1, -si*scale(i+1))
		}
	}
	return coo.ToCSR()
}

// TestCGSolvesIllConditioned checks that unpreconditioned CG still meets a
// tight tolerance on a badly scaled system within its budget, and that the
// answer satisfies Ax = b entrywise.
func TestCGSolvesIllConditioned(t *testing.T) {
	const n = 60
	m := scaledLap(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	res := CG(m, b, x, 1e-10, 5000)
	if !res.Converged {
		t.Fatalf("CG failed: %+v", res)
	}
	r := make([]float64, n)
	m.Apply(r, x)
	for i := range r {
		if math.Abs(r[i]-b[i]) > 1e-6*(1+math.Abs(b[i])) {
			t.Fatalf("residual at %d: %v", i, r[i]-b[i])
		}
	}
}

// RelResidual is the absolute Residual over ‖b‖ — the quantity the
// tolerance bounds — on the converged path, at the iteration cap, and for
// a zero right-hand side, whose ‖b‖ counts as 1.
func TestCGRelResidualIsResidualOverRHS(t *testing.T) {
	a, b := contrastStencil(200, 1e4)
	bn := math.Sqrt(dot(b, b))
	for _, maxIter := range []int{5, 10000} {
		res := CG(a, b, make([]float64, a.Size()), 1e-10, maxIter)
		if res.RelResidual != res.Residual/bn {
			t.Fatalf("maxIter %d: relative residual %v, want %v / %v", maxIter, res.RelResidual, res.Residual, bn)
		}
		if res.Converged != (res.RelResidual <= 1e-10) {
			t.Fatalf("maxIter %d: converged %v at relative residual %v", maxIter, res.Converged, res.RelResidual)
		}
	}
	x := []float64{1, 2}
	res := CG(a, make([]float64, a.Size()), append(x, make([]float64, a.Size()-2)...), 1e-10, 0)
	if res.RelResidual != res.Residual {
		t.Fatalf("zero b: relative residual %v, absolute %v", res.RelResidual, res.Residual)
	}
}
