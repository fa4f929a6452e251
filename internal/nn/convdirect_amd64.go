package nn

// The maddRow…AVX kernels are rowVec's on CPUs with AVX, which hasAVX
// probes for; the maddRow…AVX512 kernels run their eight-column prefix on
// CPUs with AVX-512, which hasAVX512 probes for. The epilogue kernels pair
// up the same way, and maxRow2AVX is maxRowVec's on any CPU with AVX.
//
//go:noescape
func maddRow4AVX(acc []float64, wt *[4]float64, x []float64, from *accInit)

//go:noescape
func maddRow1AVX(acc []float64, w float64, x []float64, from *[8]float64)

//go:noescape
func maddRow4x3AVX(acc []float64, wt *[12]float64, x []float64, rev bool, from *accInit)

//go:noescape
func maddRow4AVX512(acc []float64, wt *[4]float64, x []float64, from *accInit)

//go:noescape
func maddRow1AVX512(acc []float64, w float64, x []float64, from *[8]float64)

//go:noescape
func maddRow4x3AVX512(acc []float64, wt *[12]float64, x []float64, rev bool, from *accInit)

//go:noescape
func epilogueAVX(dst, src []float64, e *epilogue)

//go:noescape
func epilogueAVX512(dst, src []float64, e *epilogue)

//go:noescape
func maxRow2AVX(out, x []float64, w, hw, kd int)

func hasAVX() bool

func hasAVX512() bool

func init() {
	if !hasAVX() {
		return
	}
	rowVec = &vecKernels{lanes: 4, madd4: maddRow4AVX, madd1: maddRow1AVX, madd4x3: maddRow4x3AVX, epi: epilogueAVX}
	if hasAVX512() {
		rowVec = &vecKernels{lanes: 8, madd4: maddRow4AVX512, madd1: maddRow1AVX512, madd4x3: maddRow4x3AVX512, epi: epilogueAVX512, tail: rowVec}
	}
	maxRowVec = maxRow2AVX
}
