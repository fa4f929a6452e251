package nn

import (
	"math"
	"math/rand"
	"testing"

	"mgdiffnet/internal/tensor"
)

func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

const gradTol = 2e-5

func TestConv2DShapes(t *testing.T) {
	rng := NewRNG(1)
	c := NewConv2D(rng, "c", 3, 8, 3, 1, 1)
	x := randTensor(rng, 2, 3, 16, 16)
	y := c.Forward(x, false)
	want := []int{2, 8, 16, 16}
	for i, w := range want {
		if y.Dim(i) != w {
			t.Fatalf("dim %d = %d want %d", i, y.Dim(i), w)
		}
	}
	// Strided conv halves the spatial extent.
	cs := NewConv2D(rng, "cs", 3, 4, 3, 2, 1)
	ys := cs.Forward(x, false)
	if ys.Dim(2) != 8 || ys.Dim(3) != 8 {
		t.Fatalf("strided output %v", ys.Shape())
	}
}

func TestConv2DKnownValue(t *testing.T) {
	rng := NewRNG(1)
	c := NewConv2D(rng, "c", 1, 1, 3, 1, 1)
	// Identity-like kernel: only the center weight is 1.
	c.W.Data.Zero()
	c.W.Data.Set(1, 0, 0, 1, 1)
	c.B.Data.Zero()
	x := randTensor(rng, 1, 1, 5, 5)
	y := c.Forward(x, false)
	for i := range x.Data {
		if math.Abs(y.Data[i]-x.Data[i]) > 1e-14 {
			t.Fatalf("center-tap conv should be identity; idx %d: %v vs %v", i, y.Data[i], x.Data[i])
		}
	}
	// All-ones kernel on constant input: interior = 9, corner = 4, edge = 6.
	c.W.Data.Fill(1)
	x.Fill(1)
	y = c.Forward(x, false)
	if y.At(0, 0, 2, 2) != 9 {
		t.Fatalf("interior = %v want 9", y.At(0, 0, 2, 2))
	}
	if y.At(0, 0, 0, 0) != 4 {
		t.Fatalf("corner = %v want 4", y.At(0, 0, 0, 0))
	}
	if y.At(0, 0, 0, 2) != 6 {
		t.Fatalf("edge = %v want 6", y.At(0, 0, 0, 2))
	}
}

func TestConv2DGradients(t *testing.T) {
	rng := NewRNG(7)
	c := NewConv2D(rng, "c", 2, 3, 3, 1, 1)
	x := randTensor(rng, 2, 2, 6, 6)
	r := GradCheck(c, x, rng, 1e-5)
	if r.MaxRelErrInput > gradTol || r.MaxRelErrParam > gradTol {
		t.Fatalf("gradcheck: input %v param %v (%s)", r.MaxRelErrInput, r.MaxRelErrParam, r.ParamName)
	}
}

func TestConv2DStridedGradients(t *testing.T) {
	rng := NewRNG(8)
	c := NewConv2D(rng, "c", 2, 2, 3, 2, 1)
	x := randTensor(rng, 1, 2, 8, 8)
	r := GradCheck(c, x, rng, 1e-5)
	if r.MaxRelErrInput > gradTol || r.MaxRelErrParam > gradTol {
		t.Fatalf("gradcheck: input %v param %v (%s)", r.MaxRelErrInput, r.MaxRelErrParam, r.ParamName)
	}
}

func TestConvTranspose2DShapesAndGradients(t *testing.T) {
	rng := NewRNG(9)
	c := NewConvTranspose2D(rng, "ct", 3, 2, 2, 2, 0)
	x := randTensor(rng, 1, 3, 4, 4)
	y := c.Forward(x, false)
	if y.Dim(2) != 8 || y.Dim(3) != 8 {
		t.Fatalf("transpose conv output %v, want 8x8", y.Shape())
	}
	r := GradCheck(c, x, rng, 1e-5)
	if r.MaxRelErrInput > gradTol || r.MaxRelErrParam > gradTol {
		t.Fatalf("gradcheck: input %v param %v (%s)", r.MaxRelErrInput, r.MaxRelErrParam, r.ParamName)
	}
}

// Transpose convolution must be the adjoint of convolution with the same
// (suitably transposed) weights: <conv(x), y> == <x, convT(y)>.
func TestConvTransposeIsAdjointOfConv(t *testing.T) {
	rng := NewRNG(10)
	const ci, co, k, s, p = 2, 3, 2, 2, 0
	conv := NewConv2D(rng, "c", ci, co, k, s, p)
	conv.B.Data.Zero()
	ct := NewConvTranspose2D(rng, "ct", co, ci, k, s, p)
	ct.B.Data.Zero()
	// Share weights: ct.W[oc, ic, ky, kx] = conv.W[ic→co dims swapped].
	for a := 0; a < co; a++ {
		for b := 0; b < ci; b++ {
			for ky := 0; ky < k; ky++ {
				for kx := 0; kx < k; kx++ {
					ct.W.Data.Set(conv.W.Data.At(a, b, ky, kx), a, b, ky, kx)
				}
			}
		}
	}
	x := randTensor(rng, 1, ci, 8, 8)
	y := randTensor(rng, 1, co, 4, 4)
	cx := conv.Forward(x, false)
	cty := ct.Forward(y, false)
	lhs := cx.Dot(y)
	rhs := x.Dot(cty)
	if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestConv3DShapesAndGradients(t *testing.T) {
	rng := NewRNG(11)
	c := NewConv3D(rng, "c3", 2, 3, 3, 1, 1)
	x := randTensor(rng, 1, 2, 4, 4, 4)
	y := c.Forward(x, false)
	want := []int{1, 3, 4, 4, 4}
	for i, w := range want {
		if y.Dim(i) != w {
			t.Fatalf("dim %d = %d want %d", i, y.Dim(i), w)
		}
	}
	r := GradCheck(c, x, rng, 1e-5)
	if r.MaxRelErrInput > gradTol || r.MaxRelErrParam > gradTol {
		t.Fatalf("gradcheck: input %v param %v (%s)", r.MaxRelErrInput, r.MaxRelErrParam, r.ParamName)
	}
}

func TestConvTranspose3DShapesAndGradients(t *testing.T) {
	rng := NewRNG(12)
	c := NewConvTranspose3D(rng, "ct3", 2, 2, 2, 2, 0)
	x := randTensor(rng, 1, 2, 3, 3, 3)
	y := c.Forward(x, false)
	if y.Dim(2) != 6 || y.Dim(3) != 6 || y.Dim(4) != 6 {
		t.Fatalf("output %v want 6^3", y.Shape())
	}
	r := GradCheck(c, x, rng, 1e-5)
	if r.MaxRelErrInput > gradTol || r.MaxRelErrParam > gradTol {
		t.Fatalf("gradcheck: input %v param %v (%s)", r.MaxRelErrInput, r.MaxRelErrParam, r.ParamName)
	}
}

func TestMaxPool2D(t *testing.T) {
	x := tensor.FromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}, 1, 1, 4, 4)
	m := NewMaxPool(2)
	y := m.Forward(x, true)
	want := []float64{4, 8, 12, 16}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("maxpool[%d] = %v want %v", i, y.Data[i], w)
		}
	}
	g := tensor.FromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	gin := m.Backward(g)
	// Gradient lands exactly at the max positions.
	if gin.At(0, 0, 1, 1) != 1 || gin.At(0, 0, 1, 3) != 2 || gin.At(0, 0, 3, 1) != 3 || gin.At(0, 0, 3, 3) != 4 {
		t.Fatalf("maxpool backward wrong: %v", gin.Data)
	}
	if gin.Sum() != 10 {
		t.Fatalf("gradient mass not conserved: %v", gin.Sum())
	}
}

func TestMaxPool3DGradients(t *testing.T) {
	rng := NewRNG(13)
	m := NewMaxPool(2)
	x := randTensor(rng, 1, 2, 4, 4, 4)
	r := GradCheck(m, x, rng, 1e-6)
	if r.MaxRelErrInput > 1e-4 {
		t.Fatalf("gradcheck input err %v", r.MaxRelErrInput)
	}
}

func TestAvgPoolValuesAndGradients(t *testing.T) {
	x := tensor.FromSlice([]float64{1, 3, 5, 7}, 1, 1, 2, 2)
	a := NewAvgPool(2)
	y := a.Forward(x, true)
	if y.Len() != 1 || y.Data[0] != 4 {
		t.Fatalf("avgpool = %v want [4]", y.Data)
	}
	rng := NewRNG(14)
	x3 := randTensor(rng, 1, 2, 4, 4, 4)
	r := GradCheck(NewAvgPool(2), x3, rng, 1e-6)
	if r.MaxRelErrInput > 1e-6 {
		t.Fatalf("gradcheck input err %v", r.MaxRelErrInput)
	}
}

func TestAvgPoolApplyPreservesMean(t *testing.T) {
	rng := NewRNG(15)
	x := randTensor(rng, 2, 3, 8, 8)
	y := AvgPoolApply(x, 2)
	if math.Abs(x.Mean()-y.Mean()) > 1e-12 {
		t.Fatalf("mean not preserved: %v vs %v", x.Mean(), y.Mean())
	}
}

func TestActivationsForward(t *testing.T) {
	x := tensor.FromSlice([]float64{-2, 0, 3}, 3)
	lr := NewLeakyReLU(0.1)
	y := lr.Forward(x, false)
	want := []float64{-0.2, 0, 3}
	for i, w := range want {
		if math.Abs(y.Data[i]-w) > 1e-15 {
			t.Fatalf("leakyrelu[%d]=%v want %v", i, y.Data[i], w)
		}
	}
	sg := NewSigmoid()
	y = sg.Forward(tensor.FromSlice([]float64{0}, 1), false)
	if math.Abs(y.Data[0]-0.5) > 1e-15 {
		t.Fatalf("sigmoid(0)=%v", y.Data[0])
	}
	th := NewTanh()
	y = th.Forward(tensor.FromSlice([]float64{0, 100}, 2), false)
	if y.Data[0] != 0 || math.Abs(y.Data[1]-1) > 1e-12 {
		t.Fatalf("tanh values %v", y.Data)
	}
}

func TestActivationGradients(t *testing.T) {
	rng := NewRNG(16)
	for name, l := range map[string]Layer{
		"leakyrelu": NewLeakyReLU(0.01),
		"sigmoid":   NewSigmoid(),
		"tanh":      NewTanh(),
		"identity":  NewIdentity(),
	} {
		x := randTensor(rng, 2, 3, 5, 5)
		r := GradCheck(l, x, rng, 1e-6)
		if r.MaxRelErrInput > 1e-4 {
			t.Fatalf("%s gradcheck err %v", name, r.MaxRelErrInput)
		}
	}
}

func TestBatchNormTrainStats(t *testing.T) {
	rng := NewRNG(17)
	bn := NewBatchNorm("bn", 3)
	x := randTensor(rng, 4, 3, 6, 6)
	// Shift channel 1 strongly so normalization is observable.
	for b := 0; b < 4; b++ {
		for i := 0; i < 36; i++ {
			x.Data[(b*3+1)*36+i] += 100
		}
	}
	y := bn.Forward(x, true)
	// Per-channel mean of the output must be ~beta (0), variance ~gamma^2 (1).
	for ch := 0; ch < 3; ch++ {
		sum, sumSq := 0.0, 0.0
		for b := 0; b < 4; b++ {
			base := (b*3 + ch) * 36
			for i := 0; i < 36; i++ {
				v := y.Data[base+i]
				sum += v
				sumSq += v * v
			}
		}
		m := sum / (4 * 36)
		v := sumSq/(4*36) - m*m
		if math.Abs(m) > 1e-10 {
			t.Fatalf("channel %d mean %v", ch, m)
		}
		if math.Abs(v-1) > 1e-3 {
			t.Fatalf("channel %d var %v", ch, v)
		}
	}
	if bn.RunningMean[1] < 5 {
		t.Fatalf("running mean not updated: %v", bn.RunningMean)
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := NewRNG(18)
	bn := NewBatchNorm("bn", 2)
	x := randTensor(rng, 8, 2, 4, 4)
	for i := 0; i < 50; i++ {
		bn.Forward(x, true)
	}
	yTrain := bn.Forward(x, true)
	yEval := bn.Forward(x, false)
	// After many passes over the same batch, running stats converge to batch
	// stats, so train and eval outputs should roughly agree.
	if d := yTrain.RMSE(yEval); d > 0.1 {
		t.Fatalf("train/eval divergence %v", d)
	}
}

func TestBatchNormGradients(t *testing.T) {
	rng := NewRNG(19)
	bn := NewBatchNorm("bn", 2)
	x := randTensor(rng, 3, 2, 4, 4)
	r := GradCheck(bn, x, rng, 1e-5)
	if r.MaxRelErrInput > 1e-3 || r.MaxRelErrParam > 1e-4 {
		t.Fatalf("gradcheck: input %v param %v (%s)", r.MaxRelErrInput, r.MaxRelErrParam, r.ParamName)
	}
}

func TestConcatSplitRoundTrip(t *testing.T) {
	rng := NewRNG(20)
	a := randTensor(rng, 2, 3, 4, 4)
	b := randTensor(rng, 2, 5, 4, 4)
	cat := ConcatChannels(a, b)
	if cat.Dim(1) != 8 {
		t.Fatalf("concat channels = %d", cat.Dim(1))
	}
	// Values must appear in the right blocks.
	if cat.At(1, 2, 3, 3) != a.At(1, 2, 3, 3) {
		t.Fatal("first block mismatch")
	}
	if cat.At(1, 3, 0, 0) != b.At(1, 0, 0, 0) {
		t.Fatal("second block mismatch")
	}
	ga, gb := SplitChannels(cat, 3, 5)
	if ga.RMSE(a) != 0 || gb.RMSE(b) != 0 {
		t.Fatal("split does not invert concat")
	}
}

func TestConcat3D(t *testing.T) {
	rng := NewRNG(21)
	a := randTensor(rng, 1, 2, 3, 3, 3)
	b := randTensor(rng, 1, 1, 3, 3, 3)
	cat := ConcatChannels(a, b)
	if cat.Dim(1) != 3 || cat.Rank() != 5 {
		t.Fatalf("concat3d shape %v", cat.Shape())
	}
	ga, gb := SplitChannels(cat, 2, 1)
	if ga.RMSE(a) != 0 || gb.RMSE(b) != 0 {
		t.Fatal("3d split mismatch")
	}
}

func TestSequentialForwardBackward(t *testing.T) {
	rng := NewRNG(22)
	seq := NewSequential(
		NewConv2D(rng, "c1", 1, 4, 3, 1, 1),
		NewBatchNorm("bn1", 4),
		NewLeakyReLU(0.01),
		NewConv2D(rng, "c2", 4, 1, 3, 1, 1),
		NewSigmoid(),
	)
	x := randTensor(rng, 2, 1, 8, 8)
	y := seq.Forward(x, true)
	if !y.SameShape(x) {
		t.Fatalf("seq output %v", y.Shape())
	}
	g := seq.Backward(tensor.Full(1, y.Shape()...))
	if !g.SameShape(x) {
		t.Fatalf("seq grad %v", g.Shape())
	}
	if len(seq.Params()) != 6 {
		t.Fatalf("param groups = %d want 6", len(seq.Params()))
	}
}

func TestSGDStep(t *testing.T) {
	p := NewParam("w", 2)
	p.Data.Data[0], p.Data.Data[1] = 1, 2
	p.Grad.Data[0], p.Grad.Data[1] = 0.5, -0.5
	opt := NewSGD([]*Param{p}, 0.1, 0)
	opt.Step()
	if math.Abs(p.Data.Data[0]-0.95) > 1e-15 || math.Abs(p.Data.Data[1]-2.05) > 1e-15 {
		t.Fatalf("sgd step wrong: %v", p.Data.Data)
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := NewParam("w", 1)
	p.Grad.Data[0] = 1
	opt := NewSGD([]*Param{p}, 1, 0.9)
	opt.Step() // v=1, w=-1
	opt.Step() // v=1.9, w=-2.9
	if math.Abs(p.Data.Data[0]+2.9) > 1e-12 {
		t.Fatalf("momentum wrong: %v", p.Data.Data[0])
	}
}

// Regression: Step branches on the current Momentum field, so turning
// momentum on after construction used to hit a nil velocity slice; the
// buffers are now allocated lazily and the trajectory must match an
// optimizer built with momentum from the start.
func TestSGDMomentumSetAfterConstruction(t *testing.T) {
	pLate, pEager := NewParam("wl", 1), NewParam("we", 1)
	pLate.Grad.Data[0], pEager.Grad.Data[0] = 1, 1
	late := NewSGD([]*Param{pLate}, 1, 0)
	eager := NewSGD([]*Param{pEager}, 1, 0.9)
	late.Momentum = 0.9
	for i := 0; i < 3; i++ {
		late.Step()
		eager.Step()
	}
	if pLate.Data.Data[0] != pEager.Data.Data[0] {
		t.Fatalf("late-momentum trajectory %v differs from eager %v",
			pLate.Data.Data[0], pEager.Data.Data[0])
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)^2 with Adam; it must get close to 3.
	p := NewParam("w", 1)
	opt := NewAdam([]*Param{p}, 0.1)
	for i := 0; i < 500; i++ {
		p.ZeroGrad()
		p.Grad.Data[0] = 2 * (p.Data.Data[0] - 3)
		opt.Step()
	}
	if math.Abs(p.Data.Data[0]-3) > 1e-2 {
		t.Fatalf("adam did not converge: w=%v", p.Data.Data[0])
	}
}

func TestAdamExtendParams(t *testing.T) {
	p := NewParam("a", 1)
	opt := NewAdam([]*Param{p}, 0.1)
	q := NewParam("b", 1)
	opt.ExtendParams([]*Param{q})
	q.Grad.Data[0] = 2 * (q.Data.Data[0] - 1)
	opt.Step()
	if q.Data.Data[0] == 0 {
		t.Fatal("extended param not updated")
	}
	if len(opt.Params()) != 2 {
		t.Fatalf("params = %d", len(opt.Params()))
	}
}

func TestParamCountAndZeroGrads(t *testing.T) {
	rng := NewRNG(23)
	c := NewConv2D(rng, "c", 2, 4, 3, 1, 1)
	if got, want := ParamCount(c), 4*2*3*3+4; got != want {
		t.Fatalf("ParamCount = %d want %d", got, want)
	}
	c.W.Grad.Fill(1)
	ZeroGrads(c)
	if c.W.Grad.Sum() != 0 {
		t.Fatal("ZeroGrads failed")
	}
}

func TestTrainingReducesLossOnToyRegression(t *testing.T) {
	// End-to-end sanity: a small conv net learns to reproduce a smoothed
	// version of its input (an easy, well-posed field-to-field task).
	rng := NewRNG(24)
	seq := NewSequential(
		NewConv2D(rng, "c1", 1, 8, 3, 1, 1),
		NewLeakyReLU(0.01),
		NewConv2D(rng, "c2", 8, 1, 3, 1, 1),
	)
	opt := NewAdam(seq.Params(), 1e-3)
	x := randTensor(rng, 4, 1, 8, 8)
	target := AvgPoolApply(x, 1) // identity target via AvgPool(1)

	mse := func(pred *tensor.Tensor) (float64, *tensor.Tensor) {
		g := tensor.New(pred.Shape()...)
		s := 0.0
		for i := range pred.Data {
			d := pred.Data[i] - target.Data[i]
			s += d * d
			g.Data[i] = 2 * d / float64(pred.Len())
		}
		return s / float64(pred.Len()), g
	}

	ZeroGrads(seq.Layers...)
	first, _ := mse(seq.Forward(x, true))
	var last float64
	for it := 0; it < 60; it++ {
		ZeroGrads(seq.Layers...)
		pred := seq.Forward(x, true)
		var g *tensor.Tensor
		last, g = mse(pred)
		seq.Backward(g)
		opt.Step()
	}
	if last > first*0.5 {
		t.Fatalf("training did not reduce loss: first %v last %v", first, last)
	}
}

func TestDenseForwardKnownValues(t *testing.T) {
	rng := NewRNG(30)
	d := NewDense(rng, "d", 2, 3)
	d.W.Data.Data = []float64{1, 2, 3, 4, 5, 6} // [2,3] row-major
	d.B.Data.Data = []float64{0.5, -0.5, 0}
	x := tensor.FromSlice([]float64{1, 2}, 1, 2)
	y := d.Forward(x, false)
	// y = [1*1+2*4+0.5, 1*2+2*5-0.5, 1*3+2*6] = [9.5, 11.5, 15]
	want := []float64{9.5, 11.5, 15}
	for i, w := range want {
		if math.Abs(y.Data[i]-w) > 1e-14 {
			t.Fatalf("dense[%d]=%v want %v", i, y.Data[i], w)
		}
	}
}

func TestDenseGradients(t *testing.T) {
	rng := NewRNG(31)
	d := NewDense(rng, "d", 3, 4)
	x := randTensor(rng, 5, 3)
	r := GradCheck(d, x, rng, 1e-6)
	if r.MaxRelErrInput > 1e-5 || r.MaxRelErrParam > 1e-5 {
		t.Fatalf("gradcheck: input %v param %v (%s)", r.MaxRelErrInput, r.MaxRelErrParam, r.ParamName)
	}
}

func TestDenseShapeChecks(t *testing.T) {
	rng := NewRNG(32)
	d := NewDense(rng, "d", 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for feature mismatch")
		}
	}()
	d.Forward(tensor.New(1, 3), false)
}

func TestConv2DGEMMMatchesDirect(t *testing.T) {
	rng := NewRNG(40)
	for _, tc := range []struct{ ci, co, k, s, p, h int }{
		{1, 4, 3, 1, 1, 8},
		{3, 8, 3, 2, 1, 16},
		{2, 2, 1, 1, 0, 5},
		{4, 4, 5, 1, 2, 12},
	} {
		c := NewConv2D(rng, "c", tc.ci, tc.co, tc.k, tc.s, tc.p)
		x := randTensor(rng, 2, tc.ci, tc.h, tc.h)
		c.Algo = ConvDirect
		direct := c.Forward(x, false)
		c.Algo = ConvGEMM
		gemm := c.Forward(x, false)
		if !direct.SameShape(gemm) {
			t.Fatalf("%+v: shapes %v vs %v", tc, direct.Shape(), gemm.Shape())
		}
		for i := range direct.Data {
			if math.Abs(direct.Data[i]-gemm.Data[i]) > 1e-10*(1+math.Abs(direct.Data[i])) {
				t.Fatalf("%+v: element %d differs: %v vs %v", tc, i, direct.Data[i], gemm.Data[i])
			}
		}
	}
}

func TestIm2ColShape(t *testing.T) {
	rng := NewRNG(41)
	x := randTensor(rng, 2, 3, 8, 8)
	cols := Im2Col2D(x, 3, 1, 1)
	if cols.Dim(0) != 3*9 || cols.Dim(1) != 2*8*8 {
		t.Fatalf("im2col shape %v", cols.Shape())
	}
}

// Translation equivariance: shifting the input shifts the output (away
// from boundaries), the defining symmetry a convolutional PDE surrogate
// relies on.
func TestConvTranslationEquivariance(t *testing.T) {
	rng := NewRNG(42)
	c := NewConv2D(rng, "c", 1, 1, 3, 1, 1)
	const h = 12
	x := randTensor(rng, 1, 1, h, h)
	// Shift down-right by 2.
	xs := tensor.New(1, 1, h, h)
	for y := 0; y < h-2; y++ {
		for xx := 0; xx < h-2; xx++ {
			xs.Set(x.At(0, 0, y, xx), 0, 0, y+2, xx+2)
		}
	}
	y1 := c.Forward(x, false)
	y2 := c.Forward(xs, false)
	// Compare interiors away from both boundaries and the shift edge.
	for y := 3; y < h-3; y++ {
		for xx := 3; xx < h-3; xx++ {
			if math.Abs(y1.At(0, 0, y-2, xx-2)-y2.At(0, 0, y, xx)) > 1e-12 {
				t.Fatalf("equivariance violated at (%d,%d)", y, xx)
			}
		}
	}
}

func TestConv2DGEMMBackwardMatchesDirect(t *testing.T) {
	rng := NewRNG(45)
	for _, tc := range []struct{ ci, co, k, s, p, h int }{
		{1, 4, 3, 1, 1, 8},
		{3, 8, 3, 2, 1, 12},
		{2, 2, 5, 1, 2, 10},
	} {
		cDirect := NewConv2D(rng, "cd", tc.ci, tc.co, tc.k, tc.s, tc.p)
		cDirect.Algo = ConvDirect
		cGEMM := NewConv2D(rng, "cg", tc.ci, tc.co, tc.k, tc.s, tc.p)
		cGEMM.Algo = ConvGEMM
		// Identical weights.
		cGEMM.W.Data.CopyFrom(cDirect.W.Data)
		cGEMM.B.Data.CopyFrom(cDirect.B.Data)

		x := randTensor(rng, 2, tc.ci, tc.h, tc.h)
		out := cDirect.Forward(x, true)
		gradOut := randTensor(rng, out.Dim(0), out.Dim(1), out.Dim(2), out.Dim(3))

		ZeroGrads(cDirect, cGEMM)
		gxDirect := cDirect.Backward(gradOut)
		cGEMM.Forward(x, true)
		gxGEMM := cGEMM.Backward(gradOut)

		if d := gxDirect.RMSE(gxGEMM); d > 1e-12*(1+gxDirect.AbsMax()) {
			t.Fatalf("%+v: input gradients differ by %v", tc, d)
		}
		for i := range cDirect.W.Grad.Data {
			if math.Abs(cDirect.W.Grad.Data[i]-cGEMM.W.Grad.Data[i]) > 1e-10*(1+math.Abs(cDirect.W.Grad.Data[i])) {
				t.Fatalf("%+v: weight grad %d differs", tc, i)
			}
		}
		for i := range cDirect.B.Grad.Data {
			if math.Abs(cDirect.B.Grad.Data[i]-cGEMM.B.Grad.Data[i]) > 1e-10*(1+math.Abs(cDirect.B.Grad.Data[i])) {
				t.Fatalf("%+v: bias grad %d differs", tc, i)
			}
		}
	}
}

func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	rng := NewRNG(46)
	const n, ci, h, w, k, s, p = 1, 2, 8, 8, 3, 1, 1
	x := randTensor(rng, n, ci, h, w)
	cols := Im2Col2D(x, k, s, p)
	y := randTensor(rng, cols.Dim(0), cols.Dim(1))
	// <im2col(x), y> == <x, col2im(y)>.
	lhs := cols.Dot(y)
	img := Col2Im2D(y, n, ci, h, w, k, s, p)
	rhs := x.Dot(img)
	if math.Abs(lhs-rhs) > 1e-10*(1+math.Abs(lhs)) {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}
