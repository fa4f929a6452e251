package fem

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mgdiffnet/internal/tensor"
)

// TestBoundaryDataBits2D pins the 2D lifting to 1 − ix·h and the Dirichlet
// columns ApplyBC writes to exactly 1 and 0, bit for bit.
func TestBoundaryDataBits2D(t *testing.T) {
	for _, res := range []int{2, 5, 7, 10, 33, 100} {
		p := NewPoisson2D(res)
		h := 1.0 / float64(res-1)
		u := p.BoundaryField()
		for iy := 0; iy < res; iy++ {
			for ix := 0; ix < res; ix++ {
				want := 1 - float64(ix)*h
				if got := u.Data[iy*res+ix]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("res %d: BoundaryField(%d,%d) = %v, want %v", res, ix, iy, got, want)
				}
			}
		}
		v := tensor.Full(0.5, res, res)
		p.ApplyBC(v)
		for iy := 0; iy < res; iy++ {
			for ix := 0; ix < res; ix++ {
				want := 0.5
				switch ix {
				case 0:
					want = 1
				case res - 1:
					want = 0
				}
				if got := v.Data[iy*res+ix]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("res %d: ApplyBC(%d,%d) = %v, want %v", res, ix, iy, got, want)
				}
			}
		}
	}
}

// TestBoundaryDataBits3D pins the 3D lifting to 1 − ix·h on every node and
// the Dirichlet faces ApplyBC writes to exactly 1 (x = 0) and 0 (x = 1).
func TestBoundaryDataBits3D(t *testing.T) {
	for _, res := range []int{2, 5, 9, 12} {
		p := NewPoisson3D(res)
		h := 1.0 / float64(res-1)
		u := p.BoundaryField()
		v := tensor.Full(0.5, res, res, res)
		p.ApplyBC(v)
		for iz := 0; iz < res; iz++ {
			for iy := 0; iy < res; iy++ {
				for ix := 0; ix < res; ix++ {
					i := (iz*res+iy)*res + ix
					want := 1 - float64(ix)*h
					if got := u.Data[i]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("res %d: BoundaryField(%d,%d,%d) = %v, want %v", res, ix, iy, iz, got, want)
					}
					want = 0.5
					switch ix {
					case 0:
						want = 1
					case res - 1:
						want = 0
					}
					if got := v.Data[i]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("res %d: ApplyBC(%d,%d,%d) = %v, want %v", res, ix, iy, iz, got, want)
					}
				}
			}
		}
	}
}

// TestScratchReuseMatchesFreshEval checks that recycling Eval's scratch
// changes no bit of the loss or gradient, across batches of two sizes and
// after the opt-in is switched off again.
func TestScratchReuseMatchesFreshEval(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	batch := func(n, res int) (pred, nu *tensor.Tensor) {
		pred, nu = tensor.New(n, 1, res, res), tensor.New(n, 1, res, res)
		for i := range pred.Data {
			pred.Data[i] = rng.Float64()
			nu.Data[i] = 0.5 + rng.Float64()
		}
		return pred, nu
	}
	fresh, reused := NewEnergyLoss(2), NewEnergyLoss(2)
	reused.SetScratchReuse(true)
	check := func(step string, pred, nu *tensor.Tensor) {
		lf, gf := fresh.Eval(pred, nu)
		gfCopy := gf.Clone()
		lr, gr := reused.Eval(pred, nu)
		if math.Float64bits(lf) != math.Float64bits(lr) {
			t.Fatalf("%s: loss %v with reuse, %v without", step, lr, lf)
		}
		for i := range gfCopy.Data {
			if math.Float64bits(gfCopy.Data[i]) != math.Float64bits(gr.Data[i]) {
				t.Fatalf("%s: grad[%d] %v with reuse, %v without", step, i, gr.Data[i], gfCopy.Data[i])
			}
		}
	}
	for i, shape := range [][2]int{{3, 9}, {3, 9}, {2, 17}, {3, 9}} {
		pred, nu := batch(shape[0], shape[1])
		check(fmt.Sprintf("batch %d (%d×%d²)", i, shape[0], shape[1]), pred, nu)
	}
	reused.SetScratchReuse(false)
	pred, nu := batch(3, 9)
	check("reuse off", pred, nu)
	_, g1 := reused.Eval(pred, nu)
	_, g2 := reused.Eval(pred, nu)
	if &g1.Data[0] == &g2.Data[0] {
		t.Fatal("Eval with reuse off returned the same gradient storage twice")
	}
}
