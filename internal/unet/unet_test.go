package unet

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mgdiffnet/internal/nn"
	"mgdiffnet/internal/tensor"
)

func randInput(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.Float64()
	}
	return t
}

func TestForwardShape2D(t *testing.T) {
	u := New(DefaultConfig(2))
	rng := rand.New(rand.NewSource(1))
	x := randInput(rng, 2, 1, 16, 16)
	y := u.Forward(x, false)
	if !y.SameShape(x) {
		t.Fatalf("output %v want %v", y.Shape(), x.Shape())
	}
}

func TestForwardShape3D(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.BaseFilters = 4 // keep the test fast
	u := New(cfg)
	rng := rand.New(rand.NewSource(2))
	x := randInput(rng, 1, 1, 8, 8, 8)
	y := u.Forward(x, false)
	if !y.SameShape(x) {
		t.Fatalf("output %v want %v", y.Shape(), x.Shape())
	}
}

// The defining property for multigrid training: the same weights evaluate
// at any resolution that is a multiple of 2^Depth.
func TestResolutionAgnostic(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.BaseFilters = 4
	u := New(cfg)
	rng := rand.New(rand.NewSource(3))
	for _, res := range []int{8, 16, 24, 32, 64} {
		x := randInput(rng, 1, 1, res, res)
		y := u.Forward(x, false)
		if y.Dim(2) != res || y.Dim(3) != res {
			t.Fatalf("res %d: output %v", res, y.Shape())
		}
	}
}

func TestOutputInUnitIntervalWithSigmoid(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.BaseFilters = 4
	u := New(cfg)
	rng := rand.New(rand.NewSource(4))
	x := randInput(rng, 1, 1, 16, 16)
	x.Scale(50) // exaggerate activations
	y := u.Forward(x, false)
	if y.Min() < 0 || y.Max() > 1 {
		t.Fatalf("sigmoid output escaped (0,1): [%v, %v]", y.Min(), y.Max())
	}
}

func TestInvalidInputsPanic(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.BaseFilters = 4
	u := New(cfg)
	cases := map[string]*tensor.Tensor{
		"wrong rank":     tensor.New(1, 1, 16),
		"wrong channels": tensor.New(1, 2, 16, 16),
		"too small":      tensor.New(1, 1, 4, 4),
		"not multiple":   tensor.New(1, 1, 12, 12),
	}
	for name, x := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			u.Forward(x, false)
		}()
	}
}

func TestBadConfigPanics(t *testing.T) {
	for name, cfg := range map[string]Config{
		"dim":    {Dim: 4, Depth: 1, Kernel: 3, BaseFilters: 2, InChannels: 1, OutChannels: 1},
		"depth":  {Dim: 2, Depth: 0, Kernel: 3, BaseFilters: 2, InChannels: 1, OutChannels: 1},
		"kernel": {Dim: 2, Depth: 1, Kernel: 4, BaseFilters: 2, InChannels: 1, OutChannels: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			New(cfg)
		}()
	}
}

func TestGradientsFlowToAllParams(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.BaseFilters = 2
	cfg.Depth = 2
	u := New(cfg)
	rng := rand.New(rand.NewSource(5))
	x := randInput(rng, 2, 1, 8, 8)
	nn.ZeroGrads(u)
	y := u.Forward(x, true)
	g := tensor.New(y.Shape()...)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	gin := u.Backward(g)
	if !gin.SameShape(x) {
		t.Fatalf("input grad shape %v", gin.Shape())
	}
	zero := 0
	for _, p := range u.Params() {
		if p.Grad.AbsMax() == 0 {
			zero++
			t.Errorf("param %s received no gradient", p.Name)
		}
	}
	if zero > 0 {
		t.Fatalf("%d parameters received no gradient", zero)
	}
}

func TestUNetGradCheck(t *testing.T) {
	// Full finite-difference verification on a tiny U-Net. BatchNorm is
	// included, so tolerances are looser than for plain convolutions.
	cfg := DefaultConfig(2)
	cfg.BaseFilters = 2
	cfg.Depth = 1
	cfg.Seed = 99
	u := New(cfg)
	rng := rand.New(rand.NewSource(6))
	x := randInput(rng, 2, 1, 4, 4)
	r := nn.GradCheck(u, x, rng, 1e-5)
	if r.MaxRelErrInput > 1e-3 || r.MaxRelErrParam > 1e-3 {
		t.Fatalf("gradcheck: input %v param %v (%s)", r.MaxRelErrInput, r.MaxRelErrParam, r.ParamName)
	}
}

func TestParamCountDepth3(t *testing.T) {
	u := New(DefaultConfig(2))
	// Depth-3, base-16 2D U-Net: the count must be stable (regression guard)
	// and in the hundreds of thousands, matching the paper's "large model"
	// at this depth.
	n := u.ParamCount()
	if n < 100_000 || n > 2_000_000 {
		t.Fatalf("suspicious parameter count %d", n)
	}
	u2 := New(DefaultConfig(2))
	if u2.ParamCount() != n {
		t.Fatal("param count not deterministic")
	}
}

func TestDeterministicInit(t *testing.T) {
	a, b := New(DefaultConfig(2)), New(DefaultConfig(2))
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].Data.Data {
			if pa[i].Data.Data[j] != pb[i].Data.Data[j] {
				t.Fatalf("weights differ at %s[%d]", pa[i].Name, j)
			}
		}
	}
}

func TestAdaptAddsAndRemovesLayers(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.BaseFilters = 4
	u := New(cfg)
	base := u.ParamCount()

	fresh := u.Adapt()
	if len(fresh) != 6 { // conv W+B, tconv1 W+B, tconv2 W+B
		t.Fatalf("Adapt returned %d params, want 6", len(fresh))
	}
	after1 := u.ParamCount()
	if after1 <= base {
		t.Fatal("Adapt must add parameters")
	}
	if len(u.refinement) != 5 {
		t.Fatalf("refinement layers = %d want 5", len(u.refinement))
	}

	u.Adapt()
	if len(u.refinement) != 9 { // 5 - 1 removed + 5 new
		t.Fatalf("refinement layers after 2nd Adapt = %d want 9", len(u.refinement))
	}

	// Network must still run and preserve shape after adaptation.
	rng := rand.New(rand.NewSource(7))
	x := randInput(rng, 1, 1, 16, 16)
	y := u.Forward(x, true)
	if !y.SameShape(x) {
		t.Fatalf("adapted output %v", y.Shape())
	}
	g := u.Backward(tensor.Full(1, y.Shape()...))
	if !g.SameShape(x) {
		t.Fatalf("adapted grad %v", g.Shape())
	}
}

// A warm inference forward with buffer reuse on allocates no activation
// for BatchNorm: like LeakyReLU and Sigmoid, it overwrites the output of
// the convolution before it. So the 2D net with BatchNorm on allocates one
// more object per BatchNorm layer (its kernel closure) than the same net
// with it off; the bound allows two, for the pooled kernel scratch a
// collection during the runs can force the kernels to refill. Allocating
// its output would cost five per layer.
func TestWarmForwardBatchNormAllocatesNoActivation(t *testing.T) {
	// AllocsPerRun measures at GOMAXPROCS 1; keep the kernels on one
	// worker too, so no goroutine is counted.
	defer tensor.SetParallelism(tensor.SetParallelism(1))
	x := randInput(rand.New(rand.NewSource(9)), 1, 1, 32, 32)
	allocs := func(bn bool) float64 {
		cfg := DefaultConfig(2)
		cfg.BatchNorm = bn
		u := New(cfg)
		u.SetBufferReuse(true)
		u.Forward(x, false)
		return testing.AllocsPerRun(10, func() { u.Forward(x, false) })
	}
	on, off := allocs(true), allocs(false)
	if layers := 2*DefaultConfig(2).Depth + 1; on > off+float64(2*layers) {
		t.Errorf("warm forward allocates %v times with BatchNorm on, %v with it off: want at most %d more", on, off, 2*layers)
	}
}

func TestCloneProducesIdenticalOutputs(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.BaseFilters = 4
	u := New(cfg)
	rng := rand.New(rand.NewSource(8))
	// Perturb weights so the clone cannot accidentally match via seed.
	for _, p := range u.Params() {
		for i := range p.Data.Data {
			p.Data.Data[i] += 0.01 * rng.NormFloat64()
		}
	}
	u.Adapt()
	c := u.Clone()
	x := randInput(rng, 1, 1, 16, 16)
	yu := u.Forward(x, false)
	yc := c.Forward(x, false)
	if d := yu.RMSE(yc); d != 0 {
		t.Fatalf("clone output differs: RMSE %v", d)
	}
	// Mutating the clone must not affect the original.
	c.Params()[0].Data.Fill(0)
	yu2 := u.Forward(x, false)
	if yu.RMSE(yu2) != 0 {
		t.Fatal("clone shares storage with original")
	}
}

// Above the nn.ConvAuto volume threshold the 3D network switches to the
// im2col+GEMM lowering; DirectConv pins the direct-loop oracle. The two
// must agree to floating-point roundoff through a full forward and
// backward pass — the whole-network version of the kernel-level
// equivalence tests in internal/nn.
func TestUNet3DGEMMLoweringMatchesDirectConv(t *testing.T) {
	mk := func(direct bool) *UNet {
		cfg := DefaultConfig(3)
		cfg.BaseFilters = 2
		cfg.Depth = 1
		cfg.Seed = 77
		cfg.DirectConv = direct
		return New(cfg)
	}
	uDirect, uGEMM := mk(true), mk(false)
	rng := rand.New(rand.NewSource(78))
	// 32³ crosses the GEMM threshold for the full-resolution layers.
	x := randInput(rng, 1, 1, 32, 32, 32)

	yd := uDirect.Forward(x, true)
	yg := uGEMM.Forward(x, true)
	if d := yd.RMSE(yg); d > 1e-12 {
		t.Fatalf("forward passes differ: RMSE %v", d)
	}

	g := tensor.New(yd.Shape()...)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	nn.ZeroGrads(uDirect, uGEMM)
	gd := uDirect.Backward(g)
	gg := uGEMM.Backward(g.Clone())
	if d := gd.RMSE(gg); d > 1e-11 {
		t.Fatalf("input gradients differ: RMSE %v", d)
	}
	pd, pg := uDirect.Params(), uGEMM.Params()
	for i := range pd {
		if d := pd[i].Grad.RMSE(pg[i].Grad); d > 1e-11*(1+pd[i].Grad.AbsMax()) {
			t.Fatalf("param %s gradient differs: RMSE %v", pd[i].Name, d)
		}
	}
}

func TestTrainingStepDecreasesSimpleLoss(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.BaseFilters = 4
	cfg.Depth = 2
	u := New(cfg)
	opt := nn.NewAdam(u.Params(), 1e-3)
	rng := rand.New(rand.NewSource(9))
	x := randInput(rng, 2, 1, 8, 8)
	target := tensor.Full(0.25, 2, 1, 8, 8)

	loss := func(pred *tensor.Tensor) (float64, *tensor.Tensor) {
		g := tensor.New(pred.Shape()...)
		s := 0.0
		for i := range pred.Data {
			d := pred.Data[i] - target.Data[i]
			s += d * d
			g.Data[i] = 2 * d / float64(pred.Len())
		}
		return s / float64(pred.Len()), g
	}
	var first, last float64
	for it := 0; it < 30; it++ {
		nn.ZeroGrads(u)
		pred := u.Forward(x, true)
		l, g := loss(pred)
		if it == 0 {
			first = l
		}
		last = l
		u.Backward(g)
		opt.Step()
	}
	if !(last < first) || math.IsNaN(last) {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.BaseFilters = 4
	u := New(cfg)
	rng := rand.New(rand.NewSource(31))
	// Train-ish mutation: perturb weights and run a training pass so the
	// batch-norm running statistics move off their defaults.
	for _, p := range u.Params() {
		for i := range p.Data.Data {
			p.Data.Data[i] += 0.05 * rng.NormFloat64()
		}
	}
	u.Adapt()
	x := randInput(rng, 2, 1, 16, 16)
	u.Forward(x, true)

	var buf bytes.Buffer
	if err := u.Save(&buf); err != nil {
		t.Fatal(err)
	}
	v, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	xq := randInput(rng, 1, 1, 16, 16)
	yu := u.Forward(xq, false)
	yv := v.Forward(xq, false)
	if d := yu.RMSE(yv); d != 0 {
		t.Fatalf("loaded network differs: RMSE %v", d)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not a gob stream")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestSaveLoadFile(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.BaseFilters = 2
	cfg.Depth = 1
	u := New(cfg)
	path := t.TempDir() + "/model.bin"
	if err := u.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	v, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v.ParamCount() != u.ParamCount() {
		t.Fatal("param count mismatch after file round trip")
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Fatal("expected missing-file error")
	}
}

func TestValidateRes(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Depth = 3
	u := New(cfg)
	for _, res := range []int{8, 16, 24, 512} {
		if err := u.ValidateRes(res); err != nil {
			t.Errorf("ValidateRes(%d) = %v, want nil", res, err)
		}
	}
	for _, res := range []int{-8, 0, 4, 7, 12, 33} {
		err := u.ValidateRes(res)
		if err == nil {
			t.Errorf("ValidateRes(%d) accepted a size depth 3 cannot pool", res)
			continue
		}
		if !strings.Contains(err.Error(), "multiple of 8") {
			t.Errorf("ValidateRes(%d) = %q, want it to name the step 8", res, err)
		}
	}
}

// TestReceptiveFieldRadiusBoundsInfluence checks the contract slab
// inference sizes its halo on: replacing everything on one side of a row
// boundary aligned to MinInputSize leaves every output row on the other
// side with ReceptiveFieldRadius or more rows between it and the boundary
// unchanged to the bit, while some row nearer to it does change. The adapted network's
// extra stride-1 layers must be counted too.
func TestReceptiveFieldRadiusBoundsInfluence(t *testing.T) {
	const res, b = 64, 32
	for _, adapted := range []bool{false, true} {
		cfg := DefaultConfig(2)
		cfg.BaseFilters = 4
		cfg.Depth = 2
		u := New(cfg)
		if adapted {
			u.Adapt()
		}
		r := u.ReceptiveFieldRadius()
		if b%u.MinInputSize() != 0 || r >= b {
			t.Fatalf("adapted=%v: boundary %d, radius %d do not fit the grid", adapted, b, r)
		}
		rng := rand.New(rand.NewSource(31))
		x := randInput(rng, 1, 1, res, res)
		base := u.Forward(x, false).Clone()
		for _, below := range []bool{true, false} {
			// Replace rows >= b (below) or rows < b, and watch the other side.
			x2 := x.Clone()
			for iy := 0; iy < res; iy++ {
				if (iy >= b) == below {
					for ix := 0; ix < res; ix++ {
						x2.Data[iy*res+ix] = rng.Float64()
					}
				}
			}
			y := u.Forward(x2, false)
			near := false
			for iy := 0; iy < res; iy++ {
				if (iy >= b) == below {
					continue
				}
				dist := b - 1 - iy
				if !below {
					dist = iy - b
				}
				for ix := 0; ix < res; ix++ {
					i := iy*res + ix
					if math.Float64bits(base.Data[i]) == math.Float64bits(y.Data[i]) {
						continue
					}
					if dist >= r {
						t.Fatalf("adapted=%v below=%v: output row %d moved, %d rows past the boundary, radius %d",
							adapted, below, iy, dist, r)
					}
					near = true
				}
			}
			if !near {
				t.Fatalf("adapted=%v below=%v: the change reached no output", adapted, below)
			}
		}
	}
}
