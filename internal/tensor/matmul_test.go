package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func randMat(rng *rand.Rand, m, n int) *Tensor {
	t := New(m, n)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

// explicitTranspose is the reference used to reduce the transposed kernels
// to plain products.
func explicitTranspose(a *Tensor) *Tensor {
	m, n := a.Dim(0), a.Dim(1)
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}

// matMulNaive is the textbook triple loop, the correctness oracle for the
// blocked kernel.
func matMulNaive(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	if b.Dim(0) != k {
		panic("tensor: matMulNaive inner dimensions differ")
	}
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[p*n+j]
			}
			c.Data[i*n+j] = s
		}
	}
	return c
}

func assertClose(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v want %v", name, got.Shape(), want.Shape())
	}
	for i := range want.Data {
		if d := math.Abs(got.Data[i] - want.Data[i]); d > 1e-12*(1+math.Abs(want.Data[i])) {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, got.Data[i], want.Data[i])
		}
	}
}

// TestMatMulMatchesNaive in tensor_test.go covers the plain product; the
// wide-output shapes below additionally exercise the column-panel parallel
// split that conv lowerings rely on.
func TestMatMulWideOutputMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ m, k, n int }{
		{3, 65, 300}, {16, 27, 4096}, {130, 100, 130},
	} {
		a := randMat(rng, tc.m, tc.k)
		b := randMat(rng, tc.k, tc.n)
		assertClose(t, "MatMul", MatMul(a, b), matMulNaive(a, b))
	}
}

func TestMatMulTransAMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct{ k, m, n int }{
		{1, 1, 1}, {5, 3, 2}, {27, 16, 500}, {64, 64, 64}, {100, 3, 300}, {65, 130, 7},
	} {
		a := randMat(rng, tc.k, tc.m) // A is [k, m]; C = Aᵀ·B is [m, n]
		b := randMat(rng, tc.k, tc.n)
		assertClose(t, "MatMulTransA", MatMulTransA(a, b), matMulNaive(explicitTranspose(a), b))
	}
}

func TestMatMulTransBMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 2}, {16, 500, 27}, {64, 64, 64}, {3, 300, 100}, {130, 65, 7},
	} {
		a := randMat(rng, tc.m, tc.k)
		b := randMat(rng, tc.n, tc.k) // B is [n, k]; C = A·Bᵀ is [m, n]
		assertClose(t, "MatMulTransB", MatMulTransB(a, b), matMulNaive(a, explicitTranspose(b)))
	}
}

// The GEMM kernels must give bit-identical results at every parallelism
// setting: the dist package's replica-consistency guarantees rest on it.
func TestMatMulDeterministicAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMat(rng, 9, 130)
	b := randMat(rng, 130, 400)
	bt := explicitTranspose(b)
	at := explicitTranspose(a)

	prev := SetParallelism(1)
	defer SetParallelism(prev)
	serial := MatMul(a, b)
	serialTA := MatMulTransA(at, b)
	serialTB := MatMulTransB(a, bt)

	SetParallelism(8)
	for name, pair := range map[string][2]*Tensor{
		"MatMul":       {MatMul(a, b), serial},
		"MatMulTransA": {MatMulTransA(at, b), serialTA},
		"MatMulTransB": {MatMulTransB(a, bt), serialTB},
	} {
		got, want := pair[0], pair[1]
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s: element %d not bit-identical across parallelism: %v vs %v",
					name, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// matmulTileSerial is matmulTile's loop as it was before the 4-row path took
// four contraction steps per pass: the reference the micro-kernel must match
// bit for bit.
func matmulTileSerial(ad, bd, cd []float64, k, n, aSI, aSP, iLo, iHi, jLo, jHi int) {
	for i0 := iLo; i0 < iHi; i0 += blockSize {
		i1 := min(i0+blockSize, iHi)
		for p0 := 0; p0 < k; p0 += blockSize {
			p1 := min(p0+blockSize, k)
			for j0 := jLo; j0 < jHi; j0 += blockSize {
				j1 := min(j0+blockSize, jHi)
				i := i0
				for ; i+4 <= i1; i += 4 {
					c0 := cd[i*n+j0 : i*n+j1]
					c1 := cd[(i+1)*n+j0 : (i+1)*n+j1]
					c2 := cd[(i+2)*n+j0 : (i+2)*n+j1]
					c3 := cd[(i+3)*n+j0 : (i+3)*n+j1]
					for p := p0; p < p1; p++ {
						av0 := ad[i*aSI+p*aSP]
						av1 := ad[(i+1)*aSI+p*aSP]
						av2 := ad[(i+2)*aSI+p*aSP]
						av3 := ad[(i+3)*aSI+p*aSP]
						bRow := bd[p*n+j0 : p*n+j1]
						for j, bv := range bRow {
							c0[j] += av0 * bv
							c1[j] += av1 * bv
							c2[j] += av2 * bv
							c3[j] += av3 * bv
						}
					}
				}
				for ; i < i1; i++ {
					cRow := cd[i*n+j0 : i*n+j1]
					for p := p0; p < p1; p++ {
						av := ad[i*aSI+p*aSP]
						bRow := bd[p*n+j0 : p*n+j1]
						for j, bv := range bRow {
							cRow[j] += av * bv
						}
					}
				}
			}
		}
	}
}

// Four contraction steps per pass add the same terms in the same order as
// one step per pass, so the micro-kernel matches the old loop to the last
// bit: plain and transposed A, m, k and n off multiples of 4 and of the
// block size, into a C that already holds values.
func TestMatMulTileMatchesOneStepPerPass(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, tc := range []struct{ m, k, n int }{{1, 1, 1}, {7, 13, 70}, {5, 130, 67}, {9, 67, 131}, {66, 3, 5}} {
		a, b, c := randMat(rng, tc.m, tc.k), randMat(rng, tc.k, tc.n), randMat(rng, tc.m, tc.n)
		for _, form := range []struct {
			name     string
			ad       []float64
			aSI, aSP int
		}{{"plain", a.Data, tc.k, 1}, {"transA", explicitTranspose(a).Data, 1, tc.m}} {
			want, got := c.Clone(), c.Clone()
			matmulTileSerial(form.ad, b.Data, want.Data, tc.k, tc.n, form.aSI, form.aSP, 0, tc.m, 0, tc.n)
			matmulTile(form.ad, b.Data, got.Data, tc.k, tc.n, form.aSI, form.aSP, 0, tc.m, 0, tc.n)
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%s %+v: element %d is %v, want %v", form.name, tc, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// The weight-gradient shape of the im2col lowering: tiny output, huge
// contraction — exercises the fixed-chunk parallel reduction path.
func TestMatMulTransBChunkedContraction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const m, k, n = 4, 3*transBChunkK + 137, 9
	a := randMat(rng, m, k)
	b := randMat(rng, n, k)
	assertClose(t, "chunked MatMulTransB", MatMulTransB(a, b), matMulNaive(a, explicitTranspose(b)))

	prev := SetParallelism(1)
	defer SetParallelism(prev)
	serial := MatMulTransB(a, b)
	SetParallelism(8)
	parallel := MatMulTransB(a, b)
	for i := range serial.Data {
		if serial.Data[i] != parallel.Data[i] {
			t.Fatalf("chunked contraction not bit-identical across parallelism at %d", i)
		}
	}
}

func TestMatMulTransShapePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"MatMulTransA rank":  func() { MatMulTransA(New(2, 2, 2), New(2, 2)) },
		"MatMulTransA inner": func() { MatMulTransA(New(3, 2), New(4, 2)) },
		"MatMulTransB rank":  func() { MatMulTransB(New(2, 2), New(4)) },
		"MatMulTransB inner": func() { MatMulTransB(New(2, 3), New(2, 4)) },
		// The Into variants validate operands themselves: a caller passing
		// mismatched contractions must not get a silently wrong product.
		"MatMulInto inner":       func() { MatMulInto(New(2, 5), New(7, 4), New(2, 4)) },
		"MatMulInto rank":        func() { MatMulInto(New(2), New(2, 2), New(2, 2)) },
		"MatMulInto dest":        func() { MatMulInto(New(2, 3), New(3, 4), New(2, 5)) },
		"MatMulTransAInto inner": func() { MatMulTransAInto(New(3, 2), New(4, 5), New(2, 5)) },
		"MatMulTransAInto dest":  func() { MatMulTransAInto(New(3, 2), New(3, 5), New(5, 2)) },
		"MatMulTransBInto inner": func() { MatMulTransBInto(New(2, 3), New(4, 5), New(2, 4)) },
		"MatMulTransBInto dest":  func() { MatMulTransBInto(New(2, 3), New(4, 3), New(4, 2)) },
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
