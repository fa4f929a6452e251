package main

import (
	"math"
	"slices"
	"sort"
	"time"

	"mgdiffnet/internal/field"
)

// Inputs are derived from (seed, stream, index) by a counter-based mix, not
// from a shared generator: concurrent clients draw request i's input without
// a lock, and the input of request i is the same whichever client sends it.

// Streams keep the draws of different purposes independent.
const (
	streamOmega = iota + 1
	streamArrival
	streamZipf
	streamCatalogue
	streamIdle
)

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// uniform returns a value in [0, 1) fixed by (seed, stream, i, j).
func uniform(seed int64, stream, i, j int) float64 {
	h := mix64(uint64(seed))
	h = mix64(h ^ uint64(stream))
	h = mix64(h ^ uint64(i))
	h = mix64(h ^ uint64(j))
	return float64(h>>11) / (1 << 53)
}

// omegaAt draws the i-th parameter vector of a stream, uniform over the
// range the diffusivity family is defined on.
func omegaAt(seed int64, stream, i int) field.Omega {
	var w field.Omega
	for j := range w {
		w[j] = -field.OmegaRange + 2*field.OmegaRange*uniform(seed, stream, i, j)
	}
	return w
}

// omegas draws n parameter vectors of a stream.
func omegas(seed int64, stream, n int) []field.Omega {
	out := make([]field.Omega, n)
	for i := range out {
		out[i] = omegaAt(seed, stream, i)
	}
	return out
}

// poissonSchedule returns the due times, as offsets from the phase start, of
// a Poisson arrival process of the given rate over the given duration,
// conditioned on its count being exactly rate × duration: given the count,
// Poisson arrival times are independent and uniform over the interval, so
// the short-range clumping that builds queues stays random with the seed
// while the offered load is the same for every seed.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	due := make([]time.Duration, int(math.Round(rate*dur.Seconds())))
	for i := range due {
		due[i] = time.Duration(uniform(seed, streamArrival, i, 0) * float64(dur))
	}
	slices.Sort(due)
	return due
}

// zipf draws ranks in [0, n) with P(k) proportional to 1/(k+1)^s by inverting
// the cumulative distribution.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return zipf{cdf: cdf}
}

// rank maps a uniform draw to a rank.
func (z zipf) rank(u float64) int {
	return min(sort.SearchFloat64s(z.cdf, u), len(z.cdf)-1)
}
