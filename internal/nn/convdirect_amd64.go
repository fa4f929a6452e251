package nn

// maddRow4AVX and maddRow1AVX are rowVec's kernels on CPUs with AVX, which
// hasAVX probes for.
//
//go:noescape
func maddRow4AVX(acc []float64, wt *[4]float64, x []float64)

//go:noescape
func maddRow1AVX(acc []float64, w float64, x []float64)

//go:noescape
func maddRow4x3AVX(acc []float64, wt *[12]float64, x []float64, rev bool)

func hasAVX() bool

func init() {
	if hasAVX() {
		rowVec = &vecKernels{madd4: maddRow4AVX, madd1: maddRow1AVX, madd4x3: maddRow4x3AVX}
	}
}
