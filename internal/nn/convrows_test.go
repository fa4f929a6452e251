package nn

import (
	"fmt"
	"math"
	"testing"

	"mgdiffnet/internal/tensor"
)

// The per-voxel nests below are the convolution kernels as they were before
// the row kernels replaced them, kept as reference implementations: the row
// kernels must reproduce them bit for bit.

// directCorrelate overwrites yd; a nil bias is zero. Parallel over
// (n, cout), race-free.
func directCorrelate(yd, xd, wd, bias []float64, g geom) {
	ci, co, s := g.ci, g.co, g.s
	d, h, w := g.d, g.h, g.w
	do, ho, wo := g.do, g.ho, g.wo
	kd, kh, kw := g.kd, g.kh, g.kw
	pd, ph, pw := g.pd, g.ph, g.pw

	tensor.ParallelFor(g.n*co, func(job int) {
		bn := job / co
		oc := job % co
		outBase := (bn*co + oc) * do * ho * wo
		b := 0.0
		if bias != nil {
			b = bias[oc]
		}
		// Clamping each tap range to the read grid skips the same padding
		// terms a per-tap bounds test would, in the same order.
		for oz := 0; oz < do; oz++ {
			iz0 := oz*s - pd
			kzLo, kzHi := max(0, -iz0), min(kd, d-iz0)
			for oy := 0; oy < ho; oy++ {
				iy0 := oy*s - ph
				kyLo, kyHi := max(0, -iy0), min(kh, h-iy0)
				for ox := 0; ox < wo; ox++ {
					ix0 := ox*s - pw
					kxLo, kxHi := max(0, -ix0), min(kw, w-ix0)
					acc := b
					for cin := 0; cin < ci; cin++ {
						wBase := (oc*ci + cin) * kd * kh * kw
						xBase := (bn*ci+cin)*d*h*w + ix0
						for kz := kzLo; kz < kzHi; kz++ {
							for ky := kyLo; ky < kyHi; ky++ {
								rowW := wBase + (kz*kh+ky)*kw
								rowX := xBase + ((iz0+kz)*h+iy0+ky)*w
								xr := xd[rowX+kxLo : rowX+kxHi]
								for i, wv := range wd[rowW+kxLo : rowW+kxHi] {
									acc += wv * xr[i]
								}
							}
						}
					}
					yd[outBase+(oz*ho+oy)*wo+ox] = acc
				}
			}
		}
	})
}

// directAdjoint overwrites xd in gather form — each read-grid element sums
// the written-grid elements whose window covers it — so it is race-free
// parallel over (n, cin). A nil bias is zero.
func directAdjoint(xd, yd, wd, bias []float64, g geom) {
	ci, co, s := g.ci, g.co, g.s
	d, h, w := g.d, g.h, g.w
	do, ho, wo := g.do, g.ho, g.wo
	kd, kh, kw := g.kd, g.kh, g.kw
	pd, ph, pw := g.pd, g.ph, g.pw

	tensor.ParallelFor(g.n*ci, func(job int) {
		bn := job / ci
		cin := job % ci
		inBase := (bn*ci + cin) * d * h * w
		b := 0.0
		if bias != nil {
			b = bias[cin]
		}
		for iz := 0; iz < d; iz++ {
			for iy := 0; iy < h; iy++ {
				for ix := 0; ix < w; ix++ {
					acc := b
					for oc := 0; oc < co; oc++ {
						wBase := (oc*ci + cin) * kd * kh * kw
						yBase := (bn*co + oc) * do * ho * wo
						for kz := 0; kz < kd; kz++ {
							ozNum := iz + pd - kz
							if ozNum < 0 || ozNum%s != 0 {
								continue
							}
							oz := ozNum / s
							if oz >= do {
								continue
							}
							for ky := 0; ky < kh; ky++ {
								oyNum := iy + ph - ky
								if oyNum < 0 || oyNum%s != 0 {
									continue
								}
								oy := oyNum / s
								if oy >= ho {
									continue
								}
								for kx := 0; kx < kw; kx++ {
									oxNum := ix + pw - kx
									if oxNum < 0 || oxNum%s != 0 {
										continue
									}
									ox := oxNum / s
									if ox >= wo {
										continue
									}
									acc += wd[wBase+(kz*kh+ky)*kw+kx] * yd[yBase+(oz*ho+oy)*wo+ox]
								}
							}
						}
					}
					xd[inBase+(iz*h+iy)*w+ix] = acc
				}
			}
		}
	})
}

// requireSameBits fails unless got and want are equal bit for bit.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// The lowered path this kernel replaces computed y = W·im2col(x) + b. The
// row kernel with the bias last must equal that product to the last bit.
func TestCorrelateRowsBiasLastMatchesIm2ColProduct(t *testing.T) {
	const ci = 2
	for _, rank := range []int{4, 5} {
		grids := [][3]int{{5, 6, 7}}
		if rank == 4 {
			// The second grid's rows are wider than the row kernels' block.
			grids = [][3]int{{1, 7, 9}, {1, 3, 530}}
		}
		for _, grid := range grids {
			for _, co := range []int{1, 3, 4, 5, 8} {
				for _, k := range []int{1, 2, 3} {
					for _, p := range []int{0, 1} {
						for _, s := range []int{1, 2} {
							for _, n := range []int{1, 3} {
								name := fmt.Sprintf("rank%d/%dx%dx%d/co%d_k%d_p%d_s%d_n%d", rank, grid[0], grid[1], grid[2], co, k, p, s, n)
								t.Run(name, func(t *testing.T) {
									rng := NewRNG(int64(co*100 + k*10 + p*4 + s*2 + n))
									d, h, w := grid[0], grid[1], grid[2]
									kd, pd := k, p
									if rank == 4 {
										kd, pd = 1, 0
									}
									g := kernelGeom(n, ci, d, h, w, kd, k, pd, p, s)
									g.co = co
									x := randTensor(rng, gridShape(rank, n, ci, d, h, w)...)
									wt := randTensor(rng, co, g.rows())
									bias := randTensor(rng, co).Data

									var cols *tensor.Tensor
									if rank == 4 {
										cols = Im2Col2D(x, k, s, p)
									} else {
										cols = Im2Col3D(x, k, s, p)
									}
									prod := tensor.MatMul(wt, cols)
									vol := g.do * g.ho * g.wo
									want := make([]float64, n*co*vol)
									for bn := 0; bn < n; bn++ {
										for oc := 0; oc < co; oc++ {
											for i := 0; i < vol; i++ {
												want[(bn*co+oc)*vol+i] = prod.Data[oc*n*vol+bn*vol+i] + bias[oc]
											}
										}
									}
									got := make([]float64, len(want))
									correlateRows(got, x.Data, wt.Data, bias, g, true)
									requireSameBits(t, "correlate", got, want)
								})
							}
						}
					}
				}
			}
		}
	}
}

// The row kernels with the bias first (or none) are the per-voxel nests
// above with the loops reordered: same terms, same order, same bits (the
// staged kernel's extra padding terms are w·(+0); see convdirect.go). Each
// case runs with the vector row kernels, where the CPU has them, and
// without. In the strided rows, rows of 1, 3, 4 and 5 columns give the
// vector path an empty prefix, a pure tail, an exact fit, and a prefix and
// a tail; 5 output channels give a channel tail. The rows after the first
// sixteen cover the staged kernel: 2D blocks that cross samples, padded
// widths that are not a multiple of 4, the k=1, p=0 head, the one-channel
// stride-1 adjoint of the first layer, planes taller than a block, rows
// wider than one, staged and strided, and a 5-tap kernel whose staged block
// outgrows the pooled scratch.
type rowCase struct{ n, ci, co, d, h, w, kd, k, pd, p, s int }

func TestRowKernelsMatchDirectNests(t *testing.T) {
	cases := []rowCase{
		{1, 1, 1, 1, 6, 6, 1, 3, 0, 1, 1},
		{2, 3, 5, 1, 9, 300, 1, 3, 0, 1, 1},
		{3, 2, 4, 1, 7, 9, 1, 2, 0, 0, 2},
		{1, 5, 3, 1, 8, 8, 1, 4, 0, 1, 2},
		{2, 2, 8, 1, 5, 5, 1, 1, 0, 0, 1},
		{1, 2, 4, 6, 5, 7, 3, 3, 1, 1, 1},
		{2, 3, 6, 5, 6, 4, 3, 3, 1, 1, 2},
		{1, 4, 2, 8, 8, 8, 2, 2, 0, 0, 2},
		{2, 1, 7, 4, 3, 270, 2, 2, 1, 0, 1},
		{1, 6, 4, 4, 4, 4, 5, 5, 2, 2, 1},
		{1, 2, 4, 1, 3, 1, 1, 3, 0, 1, 1},
		{2, 2, 5, 1, 4, 3, 1, 3, 0, 1, 1},
		{1, 3, 4, 3, 3, 4, 3, 3, 1, 1, 1},
		{1, 2, 5, 2, 5, 5, 1, 3, 0, 1, 1},
		{1, 2, 4, 1, 2, 257, 1, 3, 0, 1, 1},
		{1, 1, 5, 2, 2, 257, 3, 3, 1, 1, 1},
		{2, 2, 4, 1, 8, 8, 1, 3, 0, 1, 1},
		{3, 4, 8, 1, 8, 8, 1, 3, 0, 1, 1},
		{2, 3, 4, 1, 5, 7, 1, 3, 0, 1, 1},
		{1, 2, 5, 1, 6, 3, 1, 3, 0, 1, 1},
		{2, 3, 4, 3, 4, 5, 3, 3, 1, 1, 1},
		{2, 4, 1, 1, 8, 8, 1, 1, 0, 0, 1},
		{1, 4, 1, 4, 4, 4, 1, 1, 0, 0, 1},
		{2, 1, 4, 1, 8, 8, 1, 3, 0, 1, 1},
		{1, 1, 4, 6, 8, 8, 3, 3, 1, 1, 1},
		{1, 2, 4, 1, 100, 30, 1, 3, 0, 1, 1},
		{1, 2, 4, 3, 40, 30, 3, 3, 1, 1, 1},
		{1, 2, 4, 1, 3, 1100, 1, 3, 0, 1, 1},
		{1, 1, 4, 1, 2, 2100, 1, 2, 0, 0, 2},
		{1, 1, 4, 1, 3, 900, 1, 5, 0, 2, 1},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%+v", tc), func(t *testing.T) {
			for _, vec := range []bool{false, true} {
				t.Run(vectorName(vec), func(t *testing.T) {
					withVectorRows(t, vec)
					rowKernelsMatchDirectNests(t, tc)
				})
			}
		})
	}
	// The inputs the staged kernel's padding terms can show on: a −0 bias
	// and a non-finite weight. A channel of −0 terms after a −0 bias sums
	// to −0 in the nest, and the row kernels write +0, so those compare
	// with ==. A non-finite weight makes its padding terms NaN, so every
	// element of the output channel it feeds is non-finite. Every other
	// channel keeps the nest's bits.
	for _, tc := range []rowCase{
		{2, 3, 5, 1, 8, 8, 1, 3, 0, 1, 1},
		{1, 2, 4, 4, 5, 6, 3, 3, 1, 1, 1},
	} {
		for _, special := range []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()} {
			t.Run(fmt.Sprintf("%+v/special%v", tc, special), func(t *testing.T) {
				for _, vec := range []bool{false, true} {
					t.Run(vectorName(vec), func(t *testing.T) {
						withVectorRows(t, vec)
						rowKernelsOnSpecialValue(t, tc, special)
					})
				}
			})
		}
	}
}

// rowKernelsOnSpecialValue runs correlate and adjoint with special on
// output channel 0. When special is −0 it is the channel's bias, every
// weight of the channel is −0 and every input positive, so every term is
// −0: the nest sums to −0 and the row kernels write +0. Otherwise it is the
// weight of tap (0, 0, 0) from input channel 0, which falls into the
// padding for the elements on the low edges.
func rowKernelsOnSpecialValue(t *testing.T, tc rowCase, special float64) {
	rng := NewRNG(int64(tc.ci*31 + tc.co*7 + tc.w))
	g := kernelGeom(tc.n, tc.ci, tc.d, tc.h, tc.w, tc.kd, tc.k, tc.pd, tc.p, tc.s)
	g.co = tc.co
	kvol := tc.kd * tc.k * tc.k
	xd := randTensor(rng, tc.n*tc.ci*tc.d*tc.h*tc.w).Data
	yd := randTensor(rng, tc.n*tc.co*g.do*g.ho*g.wo).Data
	if special == 0 {
		for _, v := range [][]float64{xd, yd} {
			for i := range v {
				v[i] = math.Abs(v[i])
			}
		}
	}
	for _, transposed := range []bool{false, true} {
		wd := randTensor(rng, tc.co*g.rows()).Data
		bias := randTensor(rng, max(tc.ci, tc.co)).Data
		// The correlate's channel 0 reads the weights [0, ·, ·], the
		// adjoint's [·, 0, ·].
		step, blocks := kvol, tc.ci
		if transposed {
			step, blocks = tc.ci*kvol, tc.co
		}
		if special == 0 {
			bias[0] = special
			for i := 0; i < blocks; i++ {
				for j := range wd[i*step:][:kvol] {
					wd[i*step+j] = special
				}
			}
		} else {
			wd[0] = special
		}
		var got, want []float64
		if transposed {
			got, want = make([]float64, len(xd)), make([]float64, len(xd))
			directAdjoint(want, yd, wd, bias[:tc.ci], g)
			adjointRows(got, yd, wd, bias[:tc.ci], g)
		} else {
			got, want = make([]float64, len(yd)), make([]float64, len(yd))
			directCorrelate(want, xd, wd, bias[:tc.co], g)
			correlateRows(got, xd, wd, bias[:tc.co], g, false)
		}
		oc, vol := tc.co, g.do*g.ho*g.wo
		if transposed {
			oc, vol = tc.ci, tc.d*tc.h*tc.w
		}
		for i := range want {
			what := fmt.Sprintf("transposed %v: element %d is %v, the direct nest gives %v", transposed, i, got[i], want[i])
			switch {
			case i/vol%oc != 0:
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatal(what)
				}
			case special == 0:
				if got[i] != want[i] || math.Signbit(got[i]) || !math.Signbit(want[i]) {
					t.Fatal(what + ", want +0 against −0")
				}
			case !math.IsNaN(got[i]) && !math.IsInf(got[i], 0):
				t.Fatal(what + ", want a non-finite value")
			}
		}
	}
}

func rowKernelsMatchDirectNests(t *testing.T, tc rowCase) {
	rng := NewRNG(int64(tc.ci*31 + tc.co*7 + tc.w))
	g := kernelGeom(tc.n, tc.ci, tc.d, tc.h, tc.w, tc.kd, tc.k, tc.pd, tc.p, tc.s)
	g.co = tc.co
	wd := randTensor(rng, tc.co*g.rows()).Data
	xd := randTensor(rng, tc.n*tc.ci*tc.d*tc.h*tc.w).Data
	yd := randTensor(rng, tc.n*tc.co*g.do*g.ho*g.wo).Data
	for _, bias := range [][]float64{nil, randTensor(rng, max(tc.ci, tc.co)).Data} {
		want := make([]float64, len(yd))
		got := make([]float64, len(yd))
		var b []float64
		if bias != nil {
			b = bias[:tc.co]
		}
		directCorrelate(want, xd, wd, b, g)
		correlateRows(got, xd, wd, b, g, false)
		requireSameBits(t, fmt.Sprintf("correlate (bias %v)", b != nil), got, want)

		want = make([]float64, len(xd))
		got = make([]float64, len(xd))
		if bias != nil {
			b = bias[:tc.ci]
		}
		directAdjoint(want, yd, wd, b, g)
		adjointRows(got, yd, wd, b, g)
		requireSameBits(t, fmt.Sprintf("adjoint (bias %v)", b != nil), got, want)
	}
}

// A stride-1 convolution's forward reads its input in place: a warm pass
// builds no column matrix and no product scratch, and allocates nothing but
// a few words of bookkeeping.
func TestConvForwardAllocatesNoColumnScratch(t *testing.T) {
	// AllocsPerRun measures at GOMAXPROCS 1; keep the kernels on one
	// worker too, so no goroutine is counted.
	defer tensor.SetParallelism(tensor.SetParallelism(1))
	rng := NewRNG(75)
	c2 := NewConv2D(rng, "c", 3, 8, 3, 1, 1)
	c3 := NewConv3D(rng, "c", 2, 4, 3, 1, 1)
	for _, tc := range []struct {
		name string
		l    Layer
		st   *convState
		x    *tensor.Tensor
	}{
		{"Conv2D", c2, &c2.convState, randTensor(rng, 2, 3, 16, 16)},
		{"Conv3D/32³", c3, &c3.convState, randTensor(rng, 1, 2, 32, 32, 32)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			SetBufferReuse(tc.l, true)
			tc.l.Forward(tc.x, false)
			if allocs := testing.AllocsPerRun(5, func() { tc.l.Forward(tc.x, false) }); allocs > 3 {
				t.Errorf("warm forward allocates %v times, want ≤ 3", allocs)
			}
			if tc.st.colsBuf.data != nil || tc.st.prodBuf.data != nil {
				t.Errorf("forward touched the column scratch: cols %d, prod %d elements", len(tc.st.colsBuf.data), len(tc.st.prodBuf.data))
			}
		})
	}
}
