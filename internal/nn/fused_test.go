package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mgdiffnet/internal/tensor"
)

// laneCounts returns each vector configuration the CPU has — the
// eight-lane kernels with their four-lane tail, then the four-lane kernels
// alone — followed by nil, the Go loops.
func laneCounts() []*vecKernels {
	var vs []*vecKernels
	for v := rowVec; v != nil; v = v.tail {
		vs = append(vs, v)
	}
	return append(vs, nil)
}

func lanesName(v *vecKernels) string {
	if v == nil {
		return "go"
	}
	return fmt.Sprintf("%d lanes", v.lanes)
}

// unfusedTail is what the write-out's epilogue replaces: the write-out's
// v + b, then the BatchNorm and LeakyReLU layers' own inference passes.
func unfusedTail(src []float64, b float64, bn *BatchNorm, lr *LeakyReLU) []float64 {
	y := tensor.New(1, 1, len(src))
	for i, v := range src {
		y.Data[i] = v + b
	}
	if bn != nil {
		y = bn.Forward(y, false)
	}
	if lr != nil {
		y = lr.Forward(y, false)
	}
	return y.Data
}

// FuzzEpilogue holds the fused write-out to the unfused layers bit for
// bit: the sums, the bias added last (or +0, for a bias that came first),
// the BatchNorm statistics and affine and the LeakyReLU slope are fuzzed
// values, NaN with payloads, ±0, ±Inf and a −0 bias among them, with
// BatchNorm and LeakyReLU each on and off, at every lane count the CPU has
// and in the Go loop, over n ≤ 40 elements at any alignment.
func FuzzEpilogue(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(17), uint8(1), []byte("\x02\x04\x06\x08\x0a\x0c\x0e\x10\x12\x14\x16\x18\x1a"))
	f.Add(uint8(40), uint8(3), []byte("\x01\x00\x00\x00\x00\x00\x00\xf8\xff\x01\x00\x00\x00\x00\x00\x00\xf0\x7f\x08\x03"))
	vec := rowVec
	defer func() { rowVec = vec }()
	f.Fuzz(func(t *testing.T, n, off uint8, data []byte) {
		next := fuzzValues(data)
		src := make([]float64, int(n)%41+4)[off%4:]
		for i := range src {
			src[i] = next()
		}
		bn := NewBatchNorm("bn", 1)
		bn.RunningMean[0], bn.RunningVar[0] = next(), next()
		bn.Gamma.Data.Data[0], bn.Beta.Data.Data[0] = next(), next()
		lr := NewLeakyReLU(next())
		for _, b := range []float64{next(), 0} {
			for mode := 0; mode < 4; mode++ {
				e := epilogue{b: b}
				var wantBN *BatchNorm
				var wantLR *LeakyReLU
				if mode&1 != 0 {
					wantBN = bn
					e.bn = true
					e.mu, e.g, e.beta = bn.RunningMean[0], bn.Gamma.Data.Data[0], bn.Beta.Data.Data[0]
					e.inv = 1.0 / math.Sqrt(bn.RunningVar[0]+bn.Epsilon)
				}
				if mode&2 != 0 {
					wantLR = lr
					e.leaky, e.alpha = true, lr.Alpha
				}
				want := unfusedTail(src, b, wantBN, wantLR)
				for _, v := range laneCounts() {
					rowVec = v
					got := make([]float64, len(src))
					e.apply(got, src)
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s, b %v, bn %v, leaky %v: element %d of %v is %#x, the layers give %#x",
								lanesName(v), b, e.bn, e.leaky, i, src[i], math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
					}
				}
			}
		}
	})
}

// FuzzMaxRowVector holds the vector max-pool row to the Go loop bit for
// bit: 2×2 and 2×2×2 windows over fuzzed values, NaN, ±0 and −Inf among
// them, and with tie windows where every value comes from a palette of
// three, over up to 40 windows at any alignment.
func FuzzMaxRowVector(f *testing.F) {
	f.Add(uint8(9), uint8(0), false, []byte{})
	f.Add(uint8(16), uint8(1), true, []byte("\x00\x02\x04\x06\x08"))
	f.Add(uint8(33), uint8(2), true, []byte("\x01\x00\x00\x00\x00\x00\x00\xf8\x7f\x06\x02"))
	vec := maxRowVec
	if vec == nil {
		f.Skip("no vector max-pool row on this CPU")
	}
	defer func() { maxRowVec = vec }()
	f.Fuzz(func(t *testing.T, n, shape uint8, ties bool, data []byte) {
		wo, kd, off := int(n)%41, 1+int(shape&1), int(shape>>1)%4
		h, w := 2+int(shape>>3)%3, 2*wo+int(shape>>5)
		next := fuzzValues(data)
		palette := [3]float64{next(), next(), next()}
		x := make([]float64, off+kd*h*w)[off:]
		for i := range x {
			if x[i] = next(); ties {
				x[i] = palette[math.Float64bits(x[i])%3]
			}
		}
		want, got := make([]float64, wo), make([]float64, wo)
		maxRowVec = nil
		maxRow(want, x, kd, 2, h, w)
		maxRowVec = vec
		maxRow(got, x, kd, 2, h, w)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("kd %d, %d windows, h %d, w %d: window %d is %#x, the Go loop gives %#x", kd, wo, h, w, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	})
}

// The Go epilogue's LeakyReLU selects by bits, not by a branch: it must be
// "if v < 0 { v *= a }" on every class of value.
func TestLeakyMatchesBranch(t *testing.T) {
	for _, v := range append(fuzzSpecials, -math.SmallestNonzeroFloat64, -1e-310, -math.MaxFloat64, 3, -3) {
		for _, a := range []float64{0.01, -2, 0, math.NaN(), math.Inf(1)} {
			want := v
			if v < 0 {
				want *= a
			}
			if got := leaky(v, a); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("leaky(%v, %v) = %#x, want %#x", v, a, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// A convolution whose tail is fused — at inference inside a Sequential —
// gives the bits of the convolution, BatchNorm and LeakyReLU layers run
// one by one: with the bias first (ConvDirect) and last (ConvGEMM), BN on
// and off, a −0 bias and NaN and ±Inf inputs, with and without the vector
// kernels.
func TestFusedConvMatchesLayers(t *testing.T) {
	for _, algo := range []ConvAlgo{ConvDirect, ConvGEMM} {
		for _, withBN := range []bool{false, true} {
			for _, rank := range []int{4, 5} {
				name := fmt.Sprintf("algo%d/bn%v/rank%d", algo, withBN, rank)
				t.Run(name, func(t *testing.T) {
					rng := NewRNG(int64(91 + rank))
					var conv Layer
					var shape []int
					if rank == 4 {
						c := NewConv2D(rng, "c", 3, 6, 3, 1, 1)
						c.Algo, conv, shape = algo, c, []int{2, 3, 7, 13}
						c.B.Data.Data[1] = math.Copysign(0, -1)
					} else {
						c := NewConv3D(rng, "c", 3, 6, 3, 1, 1)
						c.Algo, conv, shape = algo, c, []int{1, 3, 4, 5, 11}
						c.B.Data.Data[1] = math.Copysign(0, -1)
					}
					layers := []Layer{conv}
					if withBN {
						bn := NewBatchNorm("bn", 6)
						for c := 0; c < 6; c++ {
							bn.RunningMean[c], bn.RunningVar[c] = rng.NormFloat64(), 0.5+rng.Float64()
							bn.Gamma.Data.Data[c], bn.Beta.Data.Data[c] = rng.NormFloat64(), rng.NormFloat64()
						}
						layers = append(layers, bn)
					}
					layers = append(layers, NewLeakyReLU(0.1))
					x := randTensor(rng, shape...)
					x.Data[5], x.Data[40], x.Data[77] = math.NaN(), math.Inf(1), math.Inf(-1)
					// Output channel 1: a −0 bias, −0 weights over positive inputs.
					if c, ok := conv.(*Conv2D); ok {
						zeroChannel(c.W.Data.Data[1*27:][:27], x)
					} else {
						zeroChannel(conv.(*Conv3D).W.Data.Data[1*81:][:81], x)
					}
					want := x
					for _, l := range layers {
						want = l.Forward(want, false)
					}
					for _, vec := range []bool{false, true} {
						t.Run(vectorName(vec), func(t *testing.T) {
							withVectorRows(t, vec)
							seq := NewSequential(layers...)
							requireSameBits(t, "fused inference", seq.Forward(x, false).Data, want.Data)
						})
					}
				})
			}
		}
	}
}

// zeroChannel sets an output channel's weights to −0 and makes every finite
// input positive, so that channel's sums away from the non-finite inputs
// are −0 terms.
func zeroChannel(w []float64, x *tensor.Tensor) {
	for i := range w {
		w[i] = math.Copysign(0, -1)
	}
	for i := range x.Data {
		if !math.IsNaN(x.Data[i]) && !math.IsInf(x.Data[i], 0) {
			x.Data[i] = math.Abs(x.Data[i])
		}
	}
}

// A BatchNorm whose channel count is not its convolution's is refused
// when fused, as the layer itself refuses it.
func TestFusedBatchNormChannelMismatchPanics(t *testing.T) {
	rng := NewRNG(5)
	seq := NewSequential(NewConv2D(rng, "c", 1, 4, 3, 1, 1), NewBatchNorm("bn", 5), NewLeakyReLU(0.01))
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "channel mismatch") {
			t.Fatalf("recovered %v, want a channel mismatch panic", r)
		}
	}()
	seq.Forward(randTensor(rng, 1, 1, 6, 6), false)
}
