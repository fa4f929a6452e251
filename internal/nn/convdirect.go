package nn

import "mgdiffnet/internal/tensor"

// The three products every convolution layer is made of, each with a direct
// nest here and a GEMM lowering in im2col.go. With y on the written grid
// of g and x on the read grid:
//
//	correlate   y = W ⋆ x (+ bias)     conv forward,  transposed input gradient
//	adjoint     x = Wᵀ ⋆ y (+ bias)    conv input gradient,  transposed forward
//	weightGrad  W.Grad += y ⊗ x        both
//
// The direct nests accumulate in the order cin → kz → ky → kx (adjoint:
// cout → kz → ky → kx); the training benchmark pins the resulting bits.

func (s *convState) correlate(yd, xd, bias []float64, w *Param, g geom, lower bool) {
	if lower {
		s.lowerCorrelate(yd, xd, bias, w, g)
	} else {
		directCorrelate(yd, xd, w.Data.Data, bias, g)
	}
}

func (s *convState) adjoint(xd, yd, bias []float64, w *Param, g geom, lower bool) {
	if lower {
		s.lowerAdjoint(xd, yd, bias, w, g)
	} else {
		directAdjoint(xd, yd, w.Data.Data, bias, g)
	}
}

func (s *convState) weightGrad(yd, xd []float64, w *Param, g geom, lower bool) {
	if lower {
		s.lowerWeightGrad(yd, xd, w, g)
	} else {
		directWeightGrad(w.Grad.Data, yd, xd, g)
	}
}

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

// directWeightGrad adds into gw, parallel over (cout, cin) pairs so the
// accumulation is race-free.
func directWeightGrad(gw, yd, xd []float64, g geom) {
	n, ci, co, s := g.n, g.ci, g.co, g.s
	d, h, w := g.d, g.h, g.w
	do, ho, wo := g.do, g.ho, g.wo
	kd, kh, kw := g.kd, g.kh, g.kw
	pd, ph, pw := g.pd, g.ph, g.pw

	tensor.ParallelFor(co*ci, func(job int) {
		oc := job / ci
		cin := job % ci
		wBase := (oc*ci + cin) * kd * kh * kw
		for kz := 0; kz < kd; kz++ {
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					oxLo, oxHi := tapRange(wo, w, s, pw, kx)
					acc := 0.0
					for bn := 0; bn < n; bn++ {
						yBase := (bn*co + oc) * do * ho * wo
						xBase := (bn*ci + cin) * d * h * w
						for oz := 0; oz < do; oz++ {
							iz := oz*s - pd + kz
							if iz < 0 || iz >= d {
								continue
							}
							for oy := 0; oy < ho; oy++ {
								iy := oy*s - ph + ky
								if iy < 0 || iy >= h {
									continue
								}
								yRow := yBase + (oz*ho+oy)*wo
								xi := xBase + (iz*h+iy)*w - pw + kx + oxLo*s
								for _, yv := range yd[yRow+oxLo : yRow+oxHi] {
									acc += yv * xd[xi]
									xi += s
								}
							}
						}
					}
					gw[wBase+(kz*kh+ky)*kw+kx] += acc
				}
			}
		}
	})
}

// biasGrad adds the per-channel sums of gd — n samples of len(gb) channels
// of vol elements — into gb, chunk elements of every sample at a time.
func biasGrad(gb, gd []float64, n, vol, chunk int) {
	c := len(gb)
	for ch := range gb {
		for lo := 0; lo < vol; lo += chunk {
			hi := min(lo+chunk, vol)
			sum := 0.0
			for bn := 0; bn < n; bn++ {
				base := (bn*c + ch) * vol
				for _, v := range gd[base+lo : base+hi] {
					sum += v
				}
			}
			gb[ch] += sum
		}
	}
}
