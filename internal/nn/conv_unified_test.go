package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mgdiffnet/internal/tensor"
)

func requireBitwise(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d elements", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: element %d: rank 4 gives %v, rank 5 gives %v", what, i, a[i], b[i])
		}
	}
}

// depth1 views an NCHW tensor as the NC1HW tensor it is byte for byte.
func depth1(x *tensor.Tensor) *tensor.Tensor {
	return x.Reshape(x.Dim(0), x.Dim(1), 1, x.Dim(2), x.Dim(3))
}

// depth1Param copies a rank-4 layer's weight into the [a, b, 1, k, k]
// weight of its rank-5 twin, with a gradient of its own.
func depth1Param(p *Param) *Param {
	return &Param{Name: p.Name, Data: depth1(p.Data).Clone(), Grad: tensor.New(depth1(p.Data).Shape()...)}
}

// The 2D layers are the depth-1 case of the 3D kernels: a rank-4 layer and
// the shared kernels run on the same data as NC1HW with a depth-1 kernel
// must agree to the last bit — output, input gradient and parameter
// gradients, direct and (for a Conv) lowered.
func TestRank4IsDepth1OfRank5(t *testing.T) {
	cases := []struct{ k, s, p, n int }{
		{3, 1, 1, 1},
		{3, 2, 1, 3},
		{2, 2, 0, 2},
		{5, 1, 2, 2},
		{1, 1, 0, 4},
	}
	const ci, co, res = 3, 4, 8
	type rng = interface{ NormFloat64() float64 }
	for _, kind := range []struct {
		name   string
		lowers []bool
		rank4  func(r rng, k, s, p int, algo ConvAlgo) (l Layer, w, b *Param)
		geom   func(who string, x *tensor.Tensor, cin, cout, kd, k, pd, p, s int) geom
		fwd    func(st *convState, x *tensor.Tensor, w, b *Param, g geom, lower bool) *tensor.Tensor
		bwd    func(st *convState, grad *tensor.Tensor, w, b *Param, g geom, lower bool) *tensor.Tensor
	}{
		{"Conv", []bool{false, true}, func(r rng, k, s, p int, algo ConvAlgo) (Layer, *Param, *Param) {
			c := NewConv2D(r, "c", ci, co, k, s, p)
			c.Algo = algo
			return c, c.W, c.B
		}, func(who string, x *tensor.Tensor, cin, cout, kd, k, pd, p, s int) geom {
			return convGeom(who, x, nil, cin, cout, kd, k, pd, p, s)
		}, func(st *convState, x *tensor.Tensor, w, b *Param, g geom, lower bool) *tensor.Tensor {
			return st.convForward(x, nil, true, tail{}, w, b, g, lower)
		}, (*convState).convBackward},
		{"ConvTranspose", []bool{false}, func(r rng, k, s, p int, _ ConvAlgo) (Layer, *Param, *Param) {
			c := NewConvTranspose(r, "t", 2, ci, co, k, s, p)
			return c, c.W, c.B
		}, transposedGeom, func(st *convState, x *tensor.Tensor, w, b *Param, g geom, _ bool) *tensor.Tensor {
			return st.transposedForward(x, true, w, b, g)
		}, func(st *convState, grad *tensor.Tensor, w, b *Param, g geom, _ bool) *tensor.Tensor {
			return st.transposedBackward(grad, w, b, g)
		}},
	} {
		for _, tc := range cases {
			for _, lower := range kind.lowers {
				algo := ConvDirect
				if lower {
					algo = ConvGEMM
				}
				t.Run(fmt.Sprintf("%s/k%d_s%d_p%d_n%d_lower%v", kind.name, tc.k, tc.s, tc.p, tc.n, lower), func(t *testing.T) {
					rng := NewRNG(71)
					l, w, b := kind.rank4(rng, tc.k, tc.s, tc.p, algo)
					x := randTensor(rng, tc.n, ci, res, res)
					y := l.Forward(x, true)
					grad := randTensor(rng, y.Shape()...)
					gx := l.Backward(grad)

					var st convState
					w5, b5 := depth1Param(w), &Param{Data: b.Data.Clone(), Grad: tensor.New(co)}
					x5 := depth1(x)
					g := kind.geom("rank 5", x5, ci, co, 1, tc.k, 0, tc.p, tc.s)
					y5 := kind.fwd(&st, x5, w5, b5, g, lower)
					if y5.Rank() != 5 || y5.Dim(2) != 1 {
						t.Fatalf("rank-5 output shape %v", y5.Shape())
					}
					gx5 := kind.bwd(&st, depth1(grad), w5, b5, g, lower)

					requireBitwise(t, "output", y.Data, y5.Data)
					requireBitwise(t, "input gradient", gx.Data, gx5.Data)
					requireBitwise(t, "weight gradient", w.Grad.Data, w5.Grad.Data)
					requireBitwise(t, "bias gradient", b.Grad.Data, b5.Grad.Data)
				})
			}
		}
	}

	for _, tc := range []struct{ k, n int }{{2, 1}, {2, 3}, {4, 2}} {
		name := fmt.Sprintf("k%d_n%d", tc.k, tc.n)
		rng := NewRNG(73)
		x := randTensor(rng, tc.n, ci, res, res)

		t.Run("MaxPool/"+name, func(t *testing.T) {
			m4, m5 := NewMaxPool(tc.k), NewMaxPool(tc.k)
			y := m4.Forward(x, true)
			grad := randTensor(rng, y.Shape()...)
			y5 := m5.forward(depth1(x), true, 1)
			if y5.Rank() != 5 || y5.Dim(2) != 1 {
				t.Fatalf("rank-5 output shape %v", y5.Shape())
			}
			requireBitwise(t, "output", y.Data, y5.Data)
			requireBitwise(t, "input gradient", m4.Backward(grad).Data, m5.Backward(depth1(grad)).Data)
		})

		t.Run("AvgPool/"+name, func(t *testing.T) {
			y := AvgPoolApply(x, tc.k)
			y5 := avgPool(depth1(x), 1, tc.k)
			if y5.Rank() != 5 || y5.Dim(2) != 1 {
				t.Fatalf("rank-5 output shape %v", y5.Shape())
			}
			requireBitwise(t, "output", y.Data, y5.Data)
		})
	}
}

// Kernel selection is what the benchmark pins. Every forward pass reads its
// input rows in place. A convolution's backward lowers its input gradient
// under ConvGEMM, and under ConvAuto only in Conv3D from 32³ output voxels
// per sample; a transposed convolution's backward builds no columns (its
// input gradient is a correlation), and no weight gradient does. Each row
// runs a forward and a backward pass and observes whether the lowering's
// column scratch was touched.
func TestKernelSelection(t *testing.T) {
	conv2 := func(a ConvAlgo) (Layer, *convState) {
		c := NewConv2D(NewRNG(1), "c", 1, 1, 3, 1, 1)
		c.Algo = a
		return c, &c.convState
	}
	convT2 := func(ConvAlgo) (Layer, *convState) {
		c := NewConvTranspose(NewRNG(1), "t", 2, 1, 1, 2, 2, 0)
		return c, &c.convState
	}
	conv3 := func(a ConvAlgo) (Layer, *convState) {
		c := NewConv3D(NewRNG(1), "c", 1, 1, 3, 1, 1)
		c.Algo = a
		return c, &c.convState
	}
	convT3 := func(ConvAlgo) (Layer, *convState) {
		c := NewConvTranspose(NewRNG(1), "t", 3, 1, 1, 2, 2, 0)
		return c, &c.convState
	}
	for _, tc := range []struct {
		name     string
		build    func(ConvAlgo) (Layer, *convState)
		algo     ConvAlgo
		in       []int
		fwd, bwd bool
	}{
		{"Conv2D/auto/4²", conv2, ConvAuto, []int{1, 1, 4, 4}, false, false},
		{"Conv2D/auto/256²", conv2, ConvAuto, []int{1, 1, 256, 256}, false, false},
		{"Conv2D/direct", conv2, ConvDirect, []int{1, 1, 64, 64}, false, false},
		{"Conv2D/gemm", conv2, ConvGEMM, []int{1, 1, 4, 4}, false, true},
		{"ConvTranspose2D/4²→8²", convT2, ConvAuto, []int{1, 1, 4, 4}, false, false},
		{"ConvTranspose2D/64²→128²", convT2, ConvAuto, []int{1, 1, 64, 64}, false, false},
		{"Conv3D/auto/16³", conv3, ConvAuto, []int{1, 1, 16, 16, 16}, false, false},
		{"Conv3D/auto/31·32·32", conv3, ConvAuto, []int{1, 1, 31, 32, 32}, false, false},
		{"Conv3D/auto/32³", conv3, ConvAuto, []int{1, 1, 32, 32, 32}, false, true},
		{"Conv3D/auto/batch8·16³", conv3, ConvAuto, []int{8, 1, 16, 16, 16}, false, false},
		{"Conv3D/direct/32³", conv3, ConvDirect, []int{1, 1, 32, 32, 32}, false, false},
		{"Conv3D/gemm/4³", conv3, ConvGEMM, []int{1, 1, 4, 4, 4}, false, true},
		{"ConvTranspose3D/4³→8³", convT3, ConvAuto, []int{1, 1, 4, 4, 4}, false, false},
		{"ConvTranspose3D/16³→32³", convT3, ConvAuto, []int{1, 1, 16, 16, 16}, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, st := tc.build(tc.algo)
			x := tensor.New(tc.in...)
			y := l.Forward(x, true)
			if got := st.colsBuf.data != nil; got != tc.fwd {
				t.Fatalf("forward lowered = %v, want %v", got, tc.fwd)
			}
			st.colsBuf = gemmBuf{}
			l.Backward(tensor.New(y.Shape()...))
			if got := st.colsBuf.data != nil; got != tc.bwd {
				t.Fatalf("backward lowered = %v, want %v", got, tc.bwd)
			}
		})
	}
}

// An input too small for the layer must fail with the geometry in the
// message, not with a bare shape panic from the allocator — transposed
// convolutions included.
func TestCollapsedOutputDiagnostic(t *testing.T) {
	rng := NewRNG(74)
	for _, tc := range []struct {
		who string
		run func()
	}{
		{"Conv2D", func() { NewConv2D(rng, "c", 1, 1, 5, 2, 0).Forward(tensor.New(1, 1, 2, 2), false) }},
		{"Conv3D", func() { NewConv3D(rng, "c", 1, 1, 5, 2, 0).Forward(tensor.New(1, 1, 2, 2, 2), false) }},
		{"ConvTranspose2D", func() { NewConvTranspose(rng, "t", 2, 1, 1, 1, 1, 1).Forward(tensor.New(1, 1, 2, 2), false) }},
		{"ConvTranspose3D", func() { NewConvTranspose(rng, "t", 3, 1, 1, 1, 1, 1).Forward(tensor.New(1, 1, 2, 2, 2), false) }},
	} {
		t.Run(tc.who, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				for _, want := range []string{"nn: " + tc.who + " output collapsed for input", "kernel", "stride", "pad"} {
					if !strings.Contains(msg, want) {
						t.Fatalf("panic %q does not mention %q", msg, want)
					}
				}
			}()
			tc.run()
		})
	}
}
