package nn

import (
	"math"
	"testing"
)

func TestIm2Col3DShape(t *testing.T) {
	rng := NewRNG(60)
	x := randTensor(rng, 2, 3, 6, 6, 6)
	cols := Im2Col3D(x, 3, 1, 1)
	if cols.Dim(0) != 3*27 || cols.Dim(1) != 2*6*6*6 {
		t.Fatalf("im2col3d shape %v", cols.Shape())
	}
}

func TestCol2Im3DIsAdjointOfIm2Col3D(t *testing.T) {
	rng := NewRNG(61)
	for _, tc := range []struct{ k, s, p int }{
		{3, 1, 1}, {3, 2, 1}, {2, 2, 0}, {5, 1, 2},
	} {
		const n, ci, d, h, w = 2, 2, 6, 6, 6
		x := randTensor(rng, n, ci, d, h, w)
		cols := Im2Col3D(x, tc.k, tc.s, tc.p)
		y := randTensor(rng, cols.Dim(0), cols.Dim(1))
		// <im2col(x), y> == <x, col2im(y)>.
		lhs := cols.Dot(y)
		vol := Col2Im3D(y, n, ci, d, h, w, tc.k, tc.s, tc.p)
		rhs := x.Dot(vol)
		if math.Abs(lhs-rhs) > 1e-10*(1+math.Abs(lhs)) {
			t.Fatalf("%+v: adjoint identity violated: %v vs %v", tc, lhs, rhs)
		}
	}
}

func TestConv3DGEMMMatchesDirect(t *testing.T) {
	rng := NewRNG(62)
	for _, tc := range []struct{ ci, co, k, s, p, d int }{
		{1, 4, 3, 1, 1, 6},
		{3, 5, 3, 2, 1, 8},
		{2, 2, 1, 1, 0, 5},
		{2, 3, 5, 1, 2, 7},
		{4, 2, 2, 2, 0, 6},
	} {
		c := NewConv3D(rng, "c", tc.ci, tc.co, tc.k, tc.s, tc.p)
		c.Algo = ConvDirect
		x := randTensor(rng, 2, tc.ci, tc.d, tc.d, tc.d)
		direct := c.Forward(x, false)
		c.Algo = ConvGEMM
		gemm := c.Forward(x, false)
		if !direct.SameShape(gemm) {
			t.Fatalf("%+v: shapes %v vs %v", tc, direct.Shape(), gemm.Shape())
		}
		for i := range direct.Data {
			if math.Abs(direct.Data[i]-gemm.Data[i]) > 1e-12*(1+math.Abs(direct.Data[i])) {
				t.Fatalf("%+v: element %d differs: %v vs %v", tc, i, direct.Data[i], gemm.Data[i])
			}
		}
	}
}

func TestConv3DGEMMBackwardMatchesDirect(t *testing.T) {
	rng := NewRNG(63)
	for _, tc := range []struct{ ci, co, k, s, p, d int }{
		{1, 4, 3, 1, 1, 6},
		{3, 4, 3, 2, 1, 8},
		{2, 2, 5, 1, 2, 7},
		{2, 3, 2, 2, 0, 6},
	} {
		cDirect := NewConv3D(rng, "cd", tc.ci, tc.co, tc.k, tc.s, tc.p)
		cDirect.Algo = ConvDirect
		cGEMM := NewConv3D(rng, "cg", tc.ci, tc.co, tc.k, tc.s, tc.p)
		cGEMM.Algo = ConvGEMM
		cGEMM.W.Data.CopyFrom(cDirect.W.Data)
		cGEMM.B.Data.CopyFrom(cDirect.B.Data)

		x := randTensor(rng, 2, tc.ci, tc.d, tc.d, tc.d)
		out := cDirect.Forward(x, true)
		gradOut := randTensor(rng, out.Shape()...)

		ZeroGrads(cDirect, cGEMM)
		gxDirect := cDirect.Backward(gradOut)
		cGEMM.Forward(x, true)
		gxGEMM := cGEMM.Backward(gradOut)

		if !gxDirect.SameShape(gxGEMM) {
			t.Fatalf("%+v: input grad shapes %v vs %v", tc, gxDirect.Shape(), gxGEMM.Shape())
		}
		for i := range gxDirect.Data {
			if math.Abs(gxDirect.Data[i]-gxGEMM.Data[i]) > 1e-12*(1+math.Abs(gxDirect.Data[i])) {
				t.Fatalf("%+v: input grad %d differs: %v vs %v", tc, i, gxDirect.Data[i], gxGEMM.Data[i])
			}
		}
		for i := range cDirect.W.Grad.Data {
			if math.Abs(cDirect.W.Grad.Data[i]-cGEMM.W.Grad.Data[i]) > 1e-12*(1+math.Abs(cDirect.W.Grad.Data[i])) {
				t.Fatalf("%+v: weight grad %d differs: %v vs %v", tc, i, cDirect.W.Grad.Data[i], cGEMM.W.Grad.Data[i])
			}
		}
		for i := range cDirect.B.Grad.Data {
			if math.Abs(cDirect.B.Grad.Data[i]-cGEMM.B.Grad.Data[i]) > 1e-12*(1+math.Abs(cDirect.B.Grad.Data[i])) {
				t.Fatalf("%+v: bias grad %d differs", tc, i)
			}
		}
	}
}

// The forced-GEMM layer must agree with the forced-direct layer through
// the ordinary Layer interface (Forward with train=true, then Backward) —
// the exact call pattern the U-Net makes.
func TestConv3DAlgoDispatchEquivalence(t *testing.T) {
	rng := NewRNG(64)
	cDirect := NewConv3D(rng, "cd", 2, 3, 3, 1, 1)
	cDirect.Algo = ConvDirect
	cGEMM := NewConv3D(rng, "cg", 2, 3, 3, 1, 1)
	cGEMM.Algo = ConvGEMM
	cGEMM.W.Data.CopyFrom(cDirect.W.Data)
	cGEMM.B.Data.CopyFrom(cDirect.B.Data)

	x := randTensor(rng, 1, 2, 8, 8, 8)
	yd := cDirect.Forward(x, true)
	yg := cGEMM.Forward(x, true)
	if d := yd.RMSE(yg); d > 1e-13 {
		t.Fatalf("forward dispatch differs: RMSE %v", d)
	}
	gradOut := randTensor(rng, yd.Shape()...)
	ZeroGrads(cDirect, cGEMM)
	gd := cDirect.Backward(gradOut)
	gg := cGEMM.Backward(gradOut)
	if d := gd.RMSE(gg); d > 1e-13 {
		t.Fatalf("backward dispatch differs: RMSE %v", d)
	}
}
