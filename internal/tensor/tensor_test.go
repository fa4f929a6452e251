package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndStrides(t *testing.T) {
	x := New(2, 3, 4)
	if x.Rank() != 3 {
		t.Fatalf("rank = %d, want 3", x.Rank())
	}
	if x.Len() != 24 {
		t.Fatalf("len = %d, want 24", x.Len())
	}
	if x.Stride(0) != 12 || x.Stride(1) != 4 || x.Stride(2) != 1 {
		t.Fatalf("strides = %d,%d,%d", x.Stride(0), x.Stride(1), x.Stride(2))
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero dimension")
		}
	}()
	New(3, 0)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	v := 0.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 4; k++ {
				x.Set(v, i, j, k)
				v++
			}
		}
	}
	// Row-major means the data slice is exactly 0..23 in order.
	for i, got := range x.Data {
		if got != float64(i) {
			t.Fatalf("Data[%d] = %v, want %d", i, got, i)
		}
	}
	if x.At(1, 2, 3) != 23 {
		t.Fatalf("At(1,2,3) = %v, want 23", x.At(1, 2, 3))
	}
}

func TestFromSliceSharesData(t *testing.T) {
	d := []float64{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	x.Set(9, 0, 1)
	if d[1] != 9 {
		t.Fatal("FromSlice must not copy")
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestFillAndShapeIs(t *testing.T) {
	x := New(2, 3, 4)
	x.Fill(-2.5)
	for i, v := range x.Data {
		if v != -2.5 {
			t.Fatalf("Fill: Data[%d]=%v", i, v)
		}
	}
	if !x.ShapeIs(2, 3, 4) {
		t.Fatal("ShapeIs rejected the tensor's own shape")
	}
	for _, shape := range [][]int{{2, 3}, {2, 3, 4, 1}, {2, 4, 3}, {}} {
		if x.ShapeIs(shape...) {
			t.Fatalf("ShapeIs(%v) true for shape %v", shape, x.Shape())
		}
	}
}

// Rebase re-points a tensor at caller-owned storage without copying, keeps
// shape and strides, and refuses storage of the wrong length.
func TestRebaseAliasesStorage(t *testing.T) {
	x := New(2, 3)
	slab := make([]float64, 10)
	x.Rebase(slab[4:10])
	x.Set(7, 1, 2)
	if slab[9] != 7 {
		t.Fatal("Rebase must alias the given storage")
	}
	if x.Stride(0) != 3 || !x.ShapeIs(2, 3) {
		t.Fatalf("Rebase changed geometry: shape %v stride %d", x.Shape(), x.Stride(0))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	x.Rebase(slab[:5])
}

// String prints the shape and at most the first eight values, so a
// megavoxel field does not flood a log line.
func TestStringShowsShapeAndPrefix(t *testing.T) {
	small := FromSlice([]float64{1, 2, 3}, 3)
	if got, want := small.String(), "Tensor[3][1 2 3]…"; got != want {
		t.Fatalf("String() = %q want %q", got, want)
	}
	big := New(16, 16)
	for i := range big.Data {
		big.Data[i] = float64(i)
	}
	if got, want := big.String(), "Tensor[16 16][0 1 2 3 4 5 6 7]…"; got != want {
		t.Fatalf("String() = %q want %q", got, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	x := Full(2, 3, 3)
	y := x.Clone()
	y.Set(-1, 0, 0)
	if x.At(0, 0) != 2 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestReshapeViewSharesData(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	y.Set(5, 2, 3)
	if x.Data[11] != 5 {
		t.Fatal("Reshape must share data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for volume mismatch")
		}
	}()
	x.Reshape(5, 5)
}

func TestArithmetic(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 4)
	y := FromSlice([]float64{10, 20, 30, 40}, 4)
	x.Add(y)
	want := []float64{11, 22, 33, 44}
	for i, w := range want {
		if x.Data[i] != w {
			t.Fatalf("Add: Data[%d]=%v want %v", i, x.Data[i], w)
		}
	}
	x.Sub(y)
	for i, w := range []float64{1, 2, 3, 4} {
		if x.Data[i] != w {
			t.Fatalf("Sub: Data[%d]=%v want %v", i, x.Data[i], w)
		}
	}
	x.Scale(0.5)
	if x.Data[3] != 2 {
		t.Fatalf("Scale: got %v", x.Data[3])
	}
	x.Zero()
	if x.Sum() != 0 {
		t.Fatal("Zero failed")
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	x, y := New(2, 2), New(4)
	for name, f := range map[string]func(){
		"Add":  func() { x.Add(y) },
		"Sub":  func() { x.Sub(y) },
		"Copy": func() { x.CopyFrom(y) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected shape-mismatch panic", name)
				}
			}()
			f()
		}()
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{-3, 1, 4, -1}, 4)
	if x.Sum() != 1 {
		t.Fatalf("Sum=%v", x.Sum())
	}
	if x.Mean() != 0.25 {
		t.Fatalf("Mean=%v", x.Mean())
	}
	if x.Max() != 4 || x.Min() != -3 || x.AbsMax() != 4 {
		t.Fatalf("Max/Min/AbsMax = %v/%v/%v", x.Max(), x.Min(), x.AbsMax())
	}
	if got, want := x.Norm2(), math.Sqrt(9+1+16+1); math.Abs(got-want) > 1e-15 {
		t.Fatalf("Norm2=%v want %v", got, want)
	}
	if x.Dot(x) != 27 {
		t.Fatalf("Dot=%v", x.Dot(x))
	}
}

func TestRMSE(t *testing.T) {
	x := FromSlice([]float64{0, 0, 0, 0}, 4)
	y := FromSlice([]float64{2, 2, 2, 2}, 4)
	if got := x.RMSE(y); math.Abs(got-2) > 1e-15 {
		t.Fatalf("RMSE=%v want 2", got)
	}
}

// Property: Add then Sub restores the original tensor exactly for values
// without rounding interplay (integers).
func TestQuickAddSubInverse(t *testing.T) {
	f := func(vals []int8) bool {
		if len(vals) == 0 {
			return true
		}
		a := make([]float64, len(vals))
		b := make([]float64, len(vals))
		for i, v := range vals {
			a[i] = float64(v)
			b[i] = float64(int(v) * 3)
		}
		x := FromSlice(a, len(a))
		orig := x.Clone()
		y := FromSlice(b, len(b))
		x.Add(y)
		x.Sub(y)
		for i := range x.Data {
			if x.Data[i] != orig.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot(x, x) == Norm2(x)^2 up to floating-point tolerance.
func TestQuickDotNormConsistency(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				vals[i] = 1
			}
		}
		x := FromSlice(vals, len(vals))
		n := x.Norm2()
		d := x.Dot(x)
		return math.Abs(d-n*n) <= 1e-9*(1+d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParallelReduceDeterministic(t *testing.T) {
	const n = 100000
	vals := make([]float64, n)
	rng := rand.New(rand.NewSource(7))
	for i := range vals {
		vals[i] = rng.Float64()
	}
	sum := func() float64 {
		return ParallelReduce(n, func(lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += vals[i]
			}
			return s
		})
	}
	a := sum()
	for trial := 0; trial < 5; trial++ {
		if b := sum(); b != a {
			t.Fatalf("ParallelReduce non-deterministic: %v vs %v", a, b)
		}
	}
}

func TestSetParallelism(t *testing.T) {
	prev := SetParallelism(1)
	defer SetParallelism(prev)
	if Parallelism() != 1 {
		t.Fatalf("Parallelism=%d want 1", Parallelism())
	}
	got := 0.0
	got = ParallelReduce(1000, func(lo, hi int) float64 { return float64(hi - lo) })
	if got != 1000 {
		t.Fatalf("reduce under serial mode = %v", got)
	}
}

func TestMatMulKnownValues(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("C[%d]=%v want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dims := range [][3]int{{3, 4, 5}, {64, 64, 64}, {65, 130, 7}, {1, 200, 1}, {100, 1, 100}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := New(m, k)
		b := New(k, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		blocked := MatMul(a, b)
		naive := matMulNaive(a, b)
		for i := range blocked.Data {
			if math.Abs(blocked.Data[i]-naive.Data[i]) > 1e-10*(1+math.Abs(naive.Data[i])) {
				t.Fatalf("%v: element %d differs: %v vs %v", dims, i, blocked.Data[i], naive.Data[i])
			}
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"rank":  func() { MatMul(New(2), New(2, 2)) },
		"inner": func() { MatMul(New(2, 3), New(4, 2)) },
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

// Property: (A·B)·x == A·(B·x) for matrix-vector association.
func TestQuickMatMulAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const m, k, n = 5, 6, 4
		a, b := New(m, k), New(k, n)
		x := New(n, 1)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		lhs := MatMul(MatMul(a, b), x)
		rhs := MatMul(a, MatMul(b, x))
		for i := range lhs.Data {
			if math.Abs(lhs.Data[i]-rhs.Data[i]) > 1e-9*(1+math.Abs(lhs.Data[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
