package field

import (
	"math"
	"math/rand"
	"testing"
)

func testComposite() *Composite {
	return &Composite{
		MatrixNu:    1,
		InclusionNu: 10,
		Smooth:      0.01,
		Inclusions:  []Inclusion{{X: 0.5, Y: 0.5, Z: 0.5, R: 0.2}},
	}
}

func TestCompositeEvalInsideOutside(t *testing.T) {
	c := testComposite()
	if v := c.Eval2D(0.5, 0.5); math.Abs(v-10) > 0.01 {
		t.Fatalf("center value %v want ~10", v)
	}
	if v := c.Eval2D(0.05, 0.05); math.Abs(v-1) > 0.01 {
		t.Fatalf("far value %v want ~1", v)
	}
	if v := c.Eval3D(0.5, 0.5, 0.5); math.Abs(v-10) > 0.01 {
		t.Fatalf("3D center value %v", v)
	}
	// On the interface the smoothed profile is halfway.
	if v := c.Eval2D(0.5+0.2, 0.5); math.Abs(v-5.5) > 0.5 {
		t.Fatalf("interface value %v want ~5.5", v)
	}
}

func TestCompositeValuesBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewRandomComposite(rng, 2, 12, 0.03, 0.1, 1, 25)
	f := c.Raster(2, 33)
	if f.Min() < 1-1e-9 || f.Max() > 25+1e-9 {
		t.Fatalf("field escapes [matrix, inclusion] range: [%v, %v]", f.Min(), f.Max())
	}
	// With a dozen particles the field must actually contain both phases.
	if f.Max() < 20 {
		t.Fatal("no inclusion sampled on the grid")
	}
	if f.Min() > 2 {
		t.Fatal("no matrix sampled on the grid")
	}
}

func TestRandomCompositeInclusionsInsideDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewRandomComposite(rng, 3, 30, 0.05, 0.15, 1, 5)
	for _, inc := range c.Inclusions {
		for _, coord := range []float64{inc.X, inc.Y, inc.Z} {
			if coord-inc.R < -1e-12 || coord+inc.R > 1+1e-12 {
				t.Fatalf("inclusion %+v leaves the unit cube", inc)
			}
		}
	}
}

func TestVolumeFractionSingleDisc(t *testing.T) {
	c := testComposite()
	// One disc of radius 0.2: area fraction π·0.04 ≈ 0.126.
	vf := c.VolumeFraction(2, 101)
	if math.Abs(vf-math.Pi*0.04) > 0.02 {
		t.Fatalf("volume fraction %v want ~%v", vf, math.Pi*0.04)
	}
}

func TestInclusionDatasetBatchShapes(t *testing.T) {
	d := NewInclusionDataset(7, 3, 2, 5, 0.05, 0.15, 1, 10)
	if d.Len() != 3 {
		t.Fatalf("len %d", d.Len())
	}
	b := d.Batch(1, 4, 16) // wraps
	if b.Dim(0) != 4 || b.Dim(2) != 16 {
		t.Fatalf("batch shape %v", b.Shape())
	}
	d3 := NewInclusionDataset(8, 2, 3, 3, 0.1, 0.2, 1, 10)
	b3 := d3.Batch(0, 1, 8)
	if b3.Rank() != 5 {
		t.Fatalf("3D batch rank %d", b3.Rank())
	}
}

func TestInclusionDatasetDeterministic(t *testing.T) {
	a := NewInclusionDataset(9, 2, 2, 4, 0.05, 0.1, 1, 10).Batch(0, 2, 16)
	b := NewInclusionDataset(9, 2, 2, 4, 0.05, 0.1, 1, 10).Batch(0, 2, 16)
	if a.RMSE(b) != 0 {
		t.Fatal("inclusion dataset must be deterministic by seed")
	}
	c := NewInclusionDataset(10, 2, 2, 4, 0.05, 0.1, 1, 10).Batch(0, 2, 16)
	if a.RMSE(c) == 0 {
		t.Fatal("different seeds must give different microstructures")
	}
}

func TestCompositePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, f := range map[string]func(){
		"dim":    func() { NewRandomComposite(rng, 4, 1, 0.1, 0.2, 1, 2) },
		"radius": func() { NewRandomComposite(rng, 2, 1, -0.1, 0.2, 1, 2) },
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
