package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// lap1D builds the standard 1D Dirichlet Laplacian tridiag(-1, 2, -1).
func lap1D(n int) *CSR {
	coo := NewCOO(n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2)
		if i > 0 {
			coo.Add(i, i-1, -1)
		}
		if i < n-1 {
			coo.Add(i, i+1, -1)
		}
	}
	return coo.ToCSR()
}

func TestCOOToCSRSumsDuplicates(t *testing.T) {
	coo := NewCOO(3)
	coo.Add(0, 0, 1)
	coo.Add(0, 0, 2)
	coo.Add(1, 2, 5)
	coo.Add(2, 1, -1)
	m := coo.ToCSR()
	if m.NNZ() != 3 {
		t.Fatalf("nnz = %d want 3", m.NNZ())
	}
	x := []float64{1, 1, 1}
	y := make([]float64, 3)
	m.Apply(y, x)
	want := []float64{3, 5, -1}
	for i, w := range want {
		if y[i] != w {
			t.Fatalf("y[%d]=%v want %v", i, y[i], w)
		}
	}
}

func TestCOOBoundsPanic(t *testing.T) {
	coo := NewCOO(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	coo.Add(2, 0, 1)
}

// COO.NNZ counts accumulated triplets, duplicates included; ToCSR then
// merges the duplicates into one stored entry each.
func TestCOONNZCountsTripletsBeforeDedup(t *testing.T) {
	coo := NewCOO(3)
	if coo.NNZ() != 0 {
		t.Fatalf("empty COO nnz = %d", coo.NNZ())
	}
	coo.Add(1, 1, 1)
	coo.Add(1, 1, 1)
	coo.Add(1, 1, 1)
	coo.Add(0, 2, 4)
	if coo.NNZ() != 4 {
		t.Fatalf("COO nnz = %d want 4", coo.NNZ())
	}
	m := coo.ToCSR()
	if m.NNZ() != 2 {
		t.Fatalf("CSR nnz = %d want 2", m.NNZ())
	}
	y := make([]float64, 3)
	m.Apply(y, []float64{1, 1, 1})
	if y[0] != 4 || y[1] != 3 || y[2] != 0 {
		t.Fatalf("merged entries wrong: A·1 = %v", y)
	}
}

func TestCSRApplyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 12
	dense := make([][]float64, n)
	coo := NewCOO(n)
	for i := range dense {
		dense[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.3 {
				v := rng.NormFloat64()
				dense[i][j] = v
				coo.Add(i, j, v)
			}
		}
	}
	m := coo.ToCSR()
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, n)
	m.Apply(y, x)
	for i := 0; i < n; i++ {
		want := 0.0
		for j := 0; j < n; j++ {
			want += dense[i][j] * x[j]
		}
		if math.Abs(y[i]-want) > 1e-12 {
			t.Fatalf("row %d: %v vs %v", i, y[i], want)
		}
	}
}

func TestCGSolvesLaplacian(t *testing.T) {
	const n = 50
	m := lap1D(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	res := CG(m, b, x, 1e-12, 500)
	if !res.Converged {
		t.Fatalf("CG failed: %+v", res)
	}
	// Verify the residual directly.
	r := make([]float64, n)
	m.Apply(r, x)
	for i := range r {
		if math.Abs(r[i]-b[i]) > 1e-9 {
			t.Fatalf("residual at %d: %v", i, r[i]-b[i])
		}
	}
}

func TestCGExactInNIterations(t *testing.T) {
	// CG on an SPD n×n system converges in at most n iterations (exact
	// arithmetic); allow a small slack for floating point.
	const n = 30
	m := lap1D(n)
	b := make([]float64, n)
	b[n/2] = 1
	x := make([]float64, n)
	res := CG(m, b, x, 1e-10, n+5)
	if !res.Converged {
		t.Fatalf("CG needed more than n iterations: %+v", res)
	}
}

func TestCGZeroRHS(t *testing.T) {
	m := lap1D(10)
	b := make([]float64, 10)
	x := make([]float64, 10)
	res := CG(m, b, x, 1e-12, 100)
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("zero RHS should converge immediately: %+v", res)
	}
}

func TestCGWarmStart(t *testing.T) {
	const n = 40
	m := lap1D(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	cold := make([]float64, n)
	r1 := CG(m, b, cold, 1e-12, 1000)
	warm := make([]float64, n)
	copy(warm, cold)
	r2 := CG(m, b, warm, 1e-12, 1000)
	if r2.Iterations >= r1.Iterations && r2.Iterations != 0 {
		t.Fatalf("warm start (%d its) not faster than cold (%d its)", r2.Iterations, r1.Iterations)
	}
}

func TestOpFunc(t *testing.T) {
	op := OpFunc{N: 3, F: func(y, x []float64) {
		for i := range y {
			y[i] = 2 * x[i]
		}
	}}
	if op.Size() != 3 {
		t.Fatal("size")
	}
	y := make([]float64, 3)
	op.Apply(y, []float64{1, 2, 3})
	if y[2] != 6 {
		t.Fatalf("apply got %v", y)
	}
}

func TestGaussSeidelConverges(t *testing.T) {
	const n = 20
	m := lap1D(n)
	b := make([]float64, n)
	b[5] = 1
	x := make([]float64, n)
	GaussSeidel(m, b, x, 2000)
	r := make([]float64, n)
	m.Apply(r, x)
	for i := range r {
		if math.Abs(r[i]-b[i]) > 1e-6 {
			t.Fatalf("GS residual at %d: %v", i, r[i]-b[i])
		}
	}
}

// Smoothers must be fixed at the exact solution: one sweep from the
// solution stays at the solution.
func TestSmootherFixedPoint(t *testing.T) {
	const n = 15
	m := lap1D(n)
	xStar := make([]float64, n)
	rng := rand.New(rand.NewSource(2))
	for i := range xStar {
		xStar[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	m.Apply(b, xStar)

	for name, run := range map[string]func(x []float64){
		"gs": func(x []float64) { GaussSeidel(m, b, x, 3) },
	} {
		x := make([]float64, n)
		copy(x, xStar)
		run(x)
		for i := range x {
			if math.Abs(x[i]-xStar[i]) > 1e-12 {
				t.Fatalf("%s moved away from the fixed point at %d", name, i)
			}
		}
	}
}

// Property: CG solves random SPD systems A = LLᵀ + I.
func TestQuickCGRandomSPD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 8
		// A = Mᵀ M + I is SPD.
		mdense := make([][]float64, n)
		for i := range mdense {
			mdense[i] = make([]float64, n)
			for j := range mdense[i] {
				mdense[i][j] = rng.NormFloat64()
			}
		}
		coo := NewCOO(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := 0.0
				for k := 0; k < n; k++ {
					v += mdense[k][i] * mdense[k][j]
				}
				if i == j {
					v++
				}
				coo.Add(i, j, v)
			}
		}
		a := coo.ToCSR()
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		res := CG(a, b, x, 1e-10, 200)
		if !res.Converged {
			return false
		}
		r := make([]float64, n)
		a.Apply(r, x)
		for i := range r {
			if math.Abs(r[i]-b[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
