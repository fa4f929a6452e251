package nn

// maddRow4AVX is maddRowVec on CPUs with AVX, which hasAVX probes for.
//
//go:noescape
func maddRow4AVX(acc []float64, wt *[4]float64, x []float64)

func hasAVX() bool

func init() {
	if hasAVX() {
		maddRowVec = maddRow4AVX
	}
}
