package fem

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mgdiffnet/internal/tensor"
)

// hashBits is the FNV-64a hash of the values' IEEE bit patterns.
func hashBits(v ...float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// seededFields returns a field u in [−1, 1) and a diffusivity ν in
// [e⁻², e²) on the problem's grid.
func seededFields(p *Problem) (u, nu *tensor.Tensor) {
	u, nu = tensor.New(p.Shape()...), tensor.New(p.Shape()...)
	rng := rand.New(rand.NewSource(int64(100*p.Dim + p.Res)))
	for i := range u.Data {
		u.Data[i] = 2*rng.Float64() - 1
		nu.Data[i] = math.Exp(4*rng.Float64() - 2)
	}
	return u, nu
}

// TestKernelBitsPinned pins the bits of Energy (at one worker, whose
// ParallelReduce partition follows the worker count), AddEnergyGrad
// accumulating onto u, Apply, and Assemble's A·u, b and nonzero count on
// seeded fields. The hashes were recorded from the separate 2D and 3D
// problem types this one replaced, so they hold the one table builder,
// the one boundary walk and the one assembly loop to those types' bits.
func TestKernelBitsPinned(t *testing.T) {
	for _, c := range []struct {
		dim, res                     int
		energy, grad, apply, ax, rhs uint64
		nnz                          int
	}{
		{2, 9, 0x435c8da3311e4a67, 0xd5c2f51e43623999, 0x95acf4213521559e, 0x549614f49ff103dc, 0x310132142d7364d0, 493},
		{2, 65, 0x489eb5aaa6e908cb, 0xf960f462a5cc4640, 0x9f69395a5d4e7fbc, 0x21d190953d20abf7, 0x94555604146ce41f, 36221},
		{3, 9, 0x66c9be5b201c68f2, 0x1b1a3bc4f49748b0, 0x1db1303975b59e97, 0xc0cd33240e2f43ed, 0x9130a74629183b74, 12037},
		{3, 17, 0x541578db8e980d95, 0x6fcd052d70580227, 0xab55b2068535f4e5, 0x346df721e22c567a, 0x4b4dcce5b949761, 103821},
	} {
		t.Run(fmt.Sprintf("%dD/res%d", c.dim, c.res), func(t *testing.T) {
			p := NewProblem(c.dim, c.res)
			u, nu := seededFields(p)
			prev := tensor.SetParallelism(1)
			e := p.Energy(u, nu)
			tensor.SetParallelism(prev)
			g := u.Clone()
			p.AddEnergyGrad(u, nu, g)
			out := tensor.New(p.Shape()...)
			p.Apply(u, nu, out)
			m, b := Assemble(p, nu)
			ax := make([]float64, u.Len())
			m.Apply(ax, u.Data)
			for _, h := range []struct {
				name      string
				got, want uint64
			}{
				{"Energy", hashBits(e), c.energy},
				{"AddEnergyGrad", hashBits(g.Data...), c.grad},
				{"Apply", hashBits(out.Data...), c.apply},
				{"A·u", hashBits(ax...), c.ax},
				{"b", hashBits(b...), c.rhs},
			} {
				if h.got != h.want {
					t.Errorf("%s hash %#x, want %#x", h.name, h.got, h.want)
				}
			}
			if m.NNZ() != c.nnz {
				t.Errorf("nnz %d, want %d", m.NNZ(), c.nnz)
			}
		})
	}
}

// TestAddEnergyGradWorkerCountBitExact holds the colored scatter, whose
// concurrent writes are disjoint, to the same bits at 1 and 4 workers, at
// sizes above tensor.Parallel's work cutoff so the 4-worker run fans out.
func TestAddEnergyGradWorkerCountBitExact(t *testing.T) {
	for _, c := range []struct{ dim, res int }{{2, 200}, {3, 40}} {
		p := NewProblem(c.dim, c.res)
		u, nu := seededFields(p)
		grad := func(workers int) *tensor.Tensor {
			defer tensor.SetParallelism(tensor.SetParallelism(workers))
			g := nu.Clone()
			p.AddEnergyGrad(u, nu, g)
			return g
		}
		g1, g4 := grad(1), grad(4)
		for i := range g1.Data {
			if math.Float64bits(g1.Data[i]) != math.Float64bits(g4.Data[i]) {
				t.Fatalf("%dD res %d: grad[%d] = %v at 1 worker, %v at 4", c.dim, c.res, i, g1.Data[i], g4.Data[i])
			}
		}
	}
}

// mustPanic runs f and fails unless it panics with a message containing
// each of want.
func mustPanic(t *testing.T, name string, f func(), want ...string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: no panic", name)
		}
		msg := fmt.Sprint(r)
		for _, w := range want {
			if !strings.Contains(msg, w) {
				t.Fatalf("%s: panic %q does not name %q", name, msg, w)
			}
		}
	}()
	f()
}

// TestSolveRejectsBadShape: a ν that is not [R, R] or [R, R, R] with
// R ≥ 2 is refused with a panic naming its shape, instead of a wrong-shape
// answer reported as converged or an index panic deep in a sweep.
func TestSolveRejectsBadShape(t *testing.T) {
	for _, shape := range [][]int{{5, 7}, {2, 2, 2, 2}, {9, 9, 5}, {9}, {1, 1}} {
		nu := tensor.Full(1, shape...)
		mustPanic(t, fmt.Sprint(shape), func() { Solve(nu, 1e-8, 100) }, fmt.Sprint(shape))
	}
}

// TestEvalRejectsBadShape: EnergyLoss.Eval refuses unequal spatial
// extents, a rank that does not match its dimension, several channels and
// mismatched prediction and ν, naming the shapes; WithBC refuses the same
// prediction shapes instead of writing the boundary into the wrong nodes.
func TestEvalRejectsBadShape(t *testing.T) {
	for _, c := range []struct {
		dim      int
		pred, nu []int
	}{
		{2, []int{2, 1, 5, 7}, []int{2, 1, 5, 7}},
		{3, []int{1, 1, 9, 9, 5}, []int{1, 1, 9, 9, 5}},
		{2, []int{1, 1, 9, 9, 9}, []int{1, 1, 9, 9, 9}},
		{2, []int{1, 2, 9, 9}, []int{1, 2, 9, 9}},
		{2, []int{1, 1, 9, 9}, []int{1, 1, 5, 5}},
	} {
		pred, nu := tensor.Full(0.5, c.pred...), tensor.Full(1, c.nu...)
		l := NewEnergyLoss(c.dim)
		mustPanic(t, fmt.Sprintf("%dD %v", c.dim, c.pred), func() { l.Eval(pred, nu) }, fmt.Sprint(c.pred), fmt.Sprint(c.nu))
		if !slices.Equal(c.pred, c.nu) {
			continue // the prediction alone is well formed
		}
		mustPanic(t, fmt.Sprintf("WithBC %dD %v", c.dim, c.pred), func() { l.WithBC(pred) }, fmt.Sprint(c.pred))
	}
}
