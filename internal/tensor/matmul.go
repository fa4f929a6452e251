package tensor

import "fmt"

// blockSize is the cache-blocking tile edge for the GEMM kernels. 64
// float64s per row-tile keeps three tiles (A, B, C) within a typical L1
// data cache.
const blockSize = 64

// MatMul computes C = A·B for A of shape [m, k] and B of shape [k, n],
// using cache-blocked loops parallelized over row or column panels —
// whichever output axis is longer, so wide-and-short products (m = Cout
// rows, millions of columns) still fan out across workers. It is the
// blocked/parallel counterpart of the naive triple loop, and W·im2col(x)
// through it is the reference the convolution forward is tested against.
//
// The per-element summation order is fixed (ascending p within ascending
// p-blocks) regardless of the worker count, so results are bit-identical
// across parallelism settings.
func MatMul(a, b *Tensor) *Tensor {
	m, _ := checkOperands(a, b, false, false, "MatMul")
	c := New(m, b.Dim(1))
	MatMulInto(a, b, c)
	return c
}

// MatMulInto accumulates C += A·B into an existing [m, n] tensor, sparing
// the allocation when the caller reuses a scratch buffer across calls.
func MatMulInto(a, b, c *Tensor) {
	m, k := checkOperands(a, b, false, false, "MatMulInto")
	n := b.Dim(1)
	checkInto(c, m, n, "MatMulInto")
	ad, bd, cd := a.Data, b.Data, c.Data
	if m >= n {
		Parallel(m, k*n, func(lo, hi int) { matmulTile(ad, bd, cd, k, n, k, 1, lo, hi, 0, n) })
	} else {
		Parallel(n, k*m, func(lo, hi int) { matmulTile(ad, bd, cd, k, n, k, 1, 0, m, lo, hi) })
	}
}

// checkOperands validates ranks and the contraction dimension for a
// product with optionally transposed operands and returns (m, k): the
// output row count and the contraction length.
func checkOperands(a, b *Tensor, transA, transB bool, who string) (m, k int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: %s needs rank-2 operands, got %v × %v", who, a.Shape(), b.Shape()))
	}
	m, k = a.Dim(0), a.Dim(1)
	if transA {
		m, k = k, m
	}
	kb := b.Dim(0)
	if transB {
		kb = b.Dim(1)
	}
	if k != kb {
		panic(fmt.Sprintf("tensor: %s inner dimensions differ: %d vs %d", who, k, kb))
	}
	return m, k
}

func checkInto(c *Tensor, m, n int, who string) {
	if c.Rank() != 2 || c.Dim(0) != m || c.Dim(1) != n {
		panic(fmt.Sprintf("tensor: %s needs a [%d, %d] destination, got %v", who, m, n, c.Shape()))
	}
}

// matmulTile accumulates the [iLo,iHi)×[jLo,jHi) tile of C += op(A)·B
// with cache-blocked loops. B and C have row stride n; A is addressed as
// ad[i*aSI + p*aSP], so the same kernel serves the plain product
// (aSI = k, aSP = 1) and the transposed-A product over a [k, m] operand
// (aSI = 1, aSP = m) without materializing any transpose. The micro-kernel
// is register-blocked four output rows deep, so every B row streamed from
// memory feeds four C rows — the difference between memory-bound and
// compute-bound for the wide, short products of the im2col convolution
// lowering — and it takes four contraction steps per pass, so each C
// element is loaded and stored once per four. Each C element accumulates
// its p-terms one at a time in ascending order, so results are independent
// of the blocking and of the parallel partition.
func matmulTile(ad, bd, cd []float64, k, n, aSI, aSP, iLo, iHi, jLo, jHi int) {
	for i0 := iLo; i0 < iHi; i0 += blockSize {
		i1 := min(i0+blockSize, iHi)
		for p0 := 0; p0 < k; p0 += blockSize {
			p1 := min(p0+blockSize, k)
			for j0 := jLo; j0 < jHi; j0 += blockSize {
				j1 := min(j0+blockSize, jHi)
				w := j1 - j0
				i := i0
				for ; i+4 <= i1; i += 4 {
					c0 := cd[i*n+j0:][:w]
					c1 := cd[(i+1)*n+j0:][:w]
					c2 := cd[(i+2)*n+j0:][:w]
					c3 := cd[(i+3)*n+j0:][:w]
					p := p0
					for ; p+4 <= p1; p += 4 {
						r0, r1, r2, r3 := i*aSI+p*aSP, (i+1)*aSI+p*aSP, (i+2)*aSI+p*aSP, (i+3)*aSI+p*aSP
						a00, a01, a02, a03 := ad[r0], ad[r0+aSP], ad[r0+2*aSP], ad[r0+3*aSP]
						a10, a11, a12, a13 := ad[r1], ad[r1+aSP], ad[r1+2*aSP], ad[r1+3*aSP]
						a20, a21, a22, a23 := ad[r2], ad[r2+aSP], ad[r2+2*aSP], ad[r2+3*aSP]
						a30, a31, a32, a33 := ad[r3], ad[r3+aSP], ad[r3+2*aSP], ad[r3+3*aSP]
						b0 := bd[p*n+j0:][:w]
						b1 := bd[(p+1)*n+j0:][:w]
						b2 := bd[(p+2)*n+j0:][:w]
						b3 := bd[(p+3)*n+j0:][:w]
						// Go adds left to right: the same sums, in the same
						// order, as four successive +=.
						for j, v0 := range b0 {
							v1, v2, v3 := b1[j], b2[j], b3[j]
							c0[j] = c0[j] + a00*v0 + a01*v1 + a02*v2 + a03*v3
							c1[j] = c1[j] + a10*v0 + a11*v1 + a12*v2 + a13*v3
							c2[j] = c2[j] + a20*v0 + a21*v1 + a22*v2 + a23*v3
							c3[j] = c3[j] + a30*v0 + a31*v1 + a32*v2 + a33*v3
						}
					}
					for ; p < p1; p++ {
						av0 := ad[i*aSI+p*aSP]
						av1 := ad[(i+1)*aSI+p*aSP]
						av2 := ad[(i+2)*aSI+p*aSP]
						av3 := ad[(i+3)*aSI+p*aSP]
						bRow := bd[p*n+j0 : p*n+j1]
						for j, bv := range bRow {
							c0[j] += av0 * bv
							c1[j] += av1 * bv
							c2[j] += av2 * bv
							c3[j] += av3 * bv
						}
					}
				}
				// Scalar remainder rows: no zero-skip here — the 4-row
				// path above multiplies unconditionally, and which path
				// a row takes depends on the parallel partition, so
				// skipping 0·x terms (0·Inf = NaN!) only in one path
				// would make results worker-count-dependent for
				// non-finite operands.
				for ; i < i1; i++ {
					cRow := cd[i*n+j0 : i*n+j1]
					for p := p0; p < p1; p++ {
						av := ad[i*aSI+p*aSP]
						bRow := bd[p*n+j0 : p*n+j1]
						for j, bv := range bRow {
							cRow[j] += av * bv
						}
					}
				}
			}
		}
	}
}

// MatMulTransA computes C = Aᵀ·B for A of shape [k, m] and B of shape
// [k, n] without materializing the transpose: the kernel walks A down its
// columns instead. It is the backward-pass workhorse of the im2col
// convolution lowering (input gradient Wᵀ·gradOut), cache-blocked and
// parallel like MatMul, with the same fixed summation order.
func MatMulTransA(a, b *Tensor) *Tensor {
	m, _ := checkOperands(a, b, true, false, "MatMulTransA")
	c := New(m, b.Dim(1))
	MatMulTransAInto(a, b, c)
	return c
}

// MatMulTransAInto accumulates C += Aᵀ·B into an existing [m, n] tensor;
// the backward im2col pass reuses its column-gradient scratch through it.
func MatMulTransAInto(a, b, c *Tensor) {
	m, k := checkOperands(a, b, true, false, "MatMulTransAInto")
	n := b.Dim(1)
	checkInto(c, m, n, "MatMulTransAInto")
	ad, bd, cd := a.Data, b.Data, c.Data
	// A is [k, m] row-major: i-stride 1, p-stride m (the transposed walk).
	if m >= n {
		Parallel(m, k*n, func(lo, hi int) { matmulTile(ad, bd, cd, k, n, 1, m, lo, hi, 0, n) })
	} else {
		Parallel(n, k*m, func(lo, hi int) { matmulTile(ad, bd, cd, k, n, 1, m, 0, m, lo, hi) })
	}
}

// MatMulTransB computes C = A·Bᵀ for A of shape [m, k] and B of shape
// [n, k] without materializing the transpose: every output element is a
// dot product of two contiguous rows, which is the cache-optimal shape for
// the weight gradient gradOut·colsᵀ of the im2col lowering. Cache-blocked
// and parallel like MatMul, with a fixed summation order
// (ascending p-blocks).
func MatMulTransB(a, b *Tensor) *Tensor {
	m, _ := checkOperands(a, b, false, true, "MatMulTransB")
	c := New(m, b.Dim(0))
	MatMulTransBInto(a, b, c)
	return c
}

// transBChunkK is the fixed contraction-chunk length for small-output
// A·Bᵀ products. Being a constant (never derived from the worker count)
// keeps the summation order — partial dot products per chunk, combined in
// ascending chunk order — identical across parallelism settings.
const transBChunkK = 8192

// MatMulTransBInto accumulates C += A·Bᵀ into an existing [m, n] tensor.
//
// The weight-gradient product of the im2col lowering has a tiny output
// (Cout × Cin·K³) but a contraction dimension in the millions, so when the
// output offers no parallel slack the kernel splits the contraction into
// fixed transBChunkK-length chunks, reduces them concurrently into
// per-chunk partials, and combines the partials in ascending chunk order —
// deterministic regardless of the worker count.
func MatMulTransBInto(a, b, c *Tensor) {
	m, k := checkOperands(a, b, false, true, "MatMulTransBInto")
	n := b.Dim(0)
	checkInto(c, m, n, "MatMulTransBInto")
	ad, bd, cd := a.Data, b.Data, c.Data
	// The chunking decision and the chunk boundaries depend only on the
	// operand shapes — never on the worker count — so the summation order
	// is reproducible across parallelism settings.
	if m*n <= 1<<13 && k > transBChunkK {
		chunkLen := transBChunkK
		if k > 256*chunkLen {
			chunkLen = (k + 255) / 256 // cap the partial-buffer memory
		}
		nChunks := (k + chunkLen - 1) / chunkLen
		parts := make([]float64, nChunks*m*n)
		Parallel(nChunks, chunkLen*m*n, func(lo, hi int) {
			for ch := lo; ch < hi; ch++ {
				p0 := ch * chunkLen
				matmulTransBTile(ad, bd, parts[ch*m*n:(ch+1)*m*n], k, n, 0, m, 0, n, p0, min(p0+chunkLen, k))
			}
		})
		for ch := 0; ch < nChunks; ch++ {
			part := parts[ch*m*n : (ch+1)*m*n]
			for i, v := range part {
				cd[i] += v
			}
		}
		return
	}
	if m >= n {
		Parallel(m, k*n, func(lo, hi int) { matmulTransBTile(ad, bd, cd, k, n, lo, hi, 0, n, 0, k) })
	} else {
		Parallel(n, k*m, func(lo, hi int) { matmulTransBTile(ad, bd, cd, k, n, 0, m, lo, hi, 0, k) })
	}
}

// matmulTransBTile accumulates the [iLo,iHi)×[jLo,jHi) tile of C += A·Bᵀ,
// contracting over p in [pLo, pHi). Both operands are walked along
// contiguous rows; the p-block loop sits innermost of the tile loops so
// each C element accumulates its partial dot products in ascending-p
// order. The destination slice cd uses row stride n and is indexed from
// its own origin (callers pass a sub-buffer for per-chunk partials).
func matmulTransBTile(ad, bd, cd []float64, k, n, iLo, iHi, jLo, jHi, pLo, pHi int) {
	for i0 := iLo; i0 < iHi; i0 += blockSize {
		i1 := min(i0+blockSize, iHi)
		for j0 := jLo; j0 < jHi; j0 += blockSize {
			j1 := min(j0+blockSize, jHi)
			for p0 := pLo; p0 < pHi; p0 += blockSize {
				p1 := min(p0+blockSize, pHi)
				for i := i0; i < i1; i++ {
					aRow := ad[i*k+p0 : i*k+p1]
					for j := j0; j < j1; j++ {
						bRow := bd[j*k+p0 : j*k+p1]
						s := 0.0
						for p, av := range aRow {
							s += av * bRow[p]
						}
						cd[i*n+j] += s
					}
				}
			}
		}
	}
}
