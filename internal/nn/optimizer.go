package nn

import (
	"fmt"
	"math"

	"mgdiffnet/internal/tensor"
)

// Adam is the optimizer used throughout the paper (lr 1e-5 for the multigrid
// study, 1e-4 for the scaling study).
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	params []*Param
	// m and v are per-parameter views into mbuf/vbuf, which hold the first
	// and second moments as contiguous slabs mirroring the parameter
	// layout. The views keep ExportStateFor and the per-parameter fallback
	// unchanged while letting the fused step sweep whole flat runs.
	m, v       [][]float64
	mbuf, vbuf []float64
	off        []int // len(params)+1 cumulative element offsets
	t          int
	// t0 is the per-parameter step offset: the optimizer's step count at
	// the moment the parameter was registered. Parameters present from
	// construction have offset 0; parameters added mid-training by
	// ExtendParams are t0 steps younger than the optimizer.
	t0 []int
}

// NewAdam builds an Adam optimizer with the standard (0.9, 0.999, 1e-8)
// moment coefficients.
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{
		LR:      lr,
		Beta1:   0.9,
		Beta2:   0.999,
		Epsilon: 1e-8,
		params:  params,
	}
	a.t0 = make([]int, len(params))
	a.reslab()
	return a
}

// reslab (re)allocates the flat moment slabs for the current parameter
// list, copying any existing moments into the grown slabs, and refreshes
// the per-parameter views.
func (a *Adam) reslab() {
	off := make([]int, len(a.params)+1)
	for i, p := range a.params {
		off[i+1] = off[i] + p.Data.Len()
	}
	n := off[len(a.params)]
	mbuf := make([]float64, n)
	vbuf := make([]float64, n)
	copy(mbuf, a.mbuf) // existing parameters keep their prefix offsets
	copy(vbuf, a.vbuf)
	m := make([][]float64, len(a.params))
	v := make([][]float64, len(a.params))
	for i := range a.params {
		lo, hi := off[i], off[i+1]
		m[i] = mbuf[lo:hi:hi]
		v[i] = vbuf[lo:hi:hi]
	}
	a.m, a.v, a.mbuf, a.vbuf, a.off = m, v, mbuf, vbuf, off
}

// flatArena reports the Arena to use for the fused step: non-nil exactly
// when the managed parameters are the arena's parameters, in order, so
// that the arena's Data/Grad slabs align element-for-element with
// mbuf/vbuf. The check is O(#parameters) per Step — noise next to the
// O(#elements) update — and is re-evaluated every call because a network
// that adapts is re-backed by a fresh NewArena.
func (a *Adam) flatArena() *Arena {
	if len(a.params) == 0 {
		return nil
	}
	ar := a.params[0].arena
	if ar == nil || len(ar.params) != len(a.params) {
		return nil
	}
	for i, p := range a.params {
		if p.arena != ar || p.arenaIdx != i {
			return nil
		}
	}
	return ar
}

// Step applies one Adam update. Bias corrections use each parameter's own age
// t − t0 rather than the shared step counter: correcting the zero moments
// of a parameter registered at step t0 with the global count would make
// 1−β^t ≈ 1 and silently scale its first update by ~(1−β₁) instead of 1.
//
// When the parameters are arena-backed (nn.Arena) the update runs as a
// fused sweep over the contiguous data/grad/moment slabs, partitioned into
// parallel chunks by tensor.Parallel. The arithmetic per element is
// identical to the per-parameter loop — the update is pointwise, so chunk
// boundaries cannot change results — making the fused path bit-exact with
// the fallback.
func (a *Adam) Step() {
	a.t++
	if ar := a.flatArena(); ar != nil {
		a.stepFlat(ar)
		return
	}
	for i, p := range a.params {
		tEff := float64(a.t - a.t0[i])
		c1 := 1 - math.Pow(a.Beta1, tEff)
		c2 := 1 - math.Pow(a.Beta2, tEff)
		m, v := a.m[i], a.v[i]
		for j := range p.Data.Data {
			g := p.Grad.Data[j]
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*g
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*g*g
			mHat := m[j] / c1
			vHat := v[j] / c2
			p.Data.Data[j] -= a.LR * mHat / (math.Sqrt(vHat) + a.Epsilon)
		}
	}
}

// stepFlat is the fused arena sweep: maximal runs of parameters sharing a
// bias-correction age are updated as single contiguous ranges.
//
//mglint:hotpath
func (a *Adam) stepFlat(ar *Arena) {
	data, grad := ar.data, ar.grad
	for s := 0; s < len(a.params); {
		e := s + 1
		for e < len(a.params) && a.t0[e] == a.t0[s] {
			e++
		}
		tEff := float64(a.t - a.t0[s])
		c1 := 1 - math.Pow(a.Beta1, tEff)
		c2 := 1 - math.Pow(a.Beta2, tEff)
		lo, hi := a.off[s], a.off[e]
		d, g := data[lo:hi], grad[lo:hi]
		m, v := a.mbuf[lo:hi], a.vbuf[lo:hi]
		b1, b2, lr, eps := a.Beta1, a.Beta2, a.LR, a.Epsilon
		//mglint:ignore hotalloc one closure environment per tensor.Parallel call is the pinned steady-state cost; TestParallelEpochSteadyStateAllocs budgets it
		tensor.Parallel(hi-lo, 1, func(jlo, jhi int) {
			for j := jlo; j < jhi; j++ {
				gj := g[j]
				m[j] = b1*m[j] + (1-b1)*gj
				v[j] = b2*v[j] + (1-b2)*gj*gj
				mHat := m[j] / c1
				vHat := v[j] / c2
				d[j] -= lr * mHat / (math.Sqrt(vHat) + eps)
			}
		})
		s = e
	}
}

// ExtendParams registers additional parameters mid-training. This supports
// the paper's architectural adaptation (§4.1.2), where fresh layers with
// random weights are inserted when moving to a finer resolution. The new
// parameters start their bias-correction clock at the current step (see
// Step), so their first update matches a freshly constructed Adam's.
func (a *Adam) ExtendParams(newParams []*Param) {
	for _, p := range newParams {
		a.params = append(a.params, p)
		a.t0 = append(a.t0, a.t)
	}
	a.reslab()
}

// AdamState is the optimizer's full training state for a chosen parameter
// ordering: the shared step counter plus each parameter's step offset and
// first/second moment vectors. It is gob-serialized inside the training
// checkpoints of internal/core.
type AdamState struct {
	T       int
	Offsets []int
	M, V    [][]float64
}

// ExportStateFor deep-copies the optimizer state for the given parameters,
// in the given order. Every listed parameter must be managed by this
// optimizer. Managed parameters that are not listed (e.g. layers dropped
// by a later architectural adaptation) are omitted: their moments never
// influence another parameter's update, so restoring from the result
// reproduces the exact trajectory of every listed parameter.
func (a *Adam) ExportStateFor(params []*Param) (AdamState, error) {
	idx := make(map[*Param]int, len(a.params))
	for i, p := range a.params {
		idx[p] = i
	}
	s := AdamState{
		T:       a.t,
		Offsets: make([]int, len(params)),
		M:       make([][]float64, len(params)),
		V:       make([][]float64, len(params)),
	}
	for j, p := range params {
		i, ok := idx[p]
		if !ok {
			return AdamState{}, fmt.Errorf("nn: parameter %d (%s) not managed by this optimizer", j, p.Name)
		}
		s.Offsets[j] = a.t0[i]
		s.M[j] = append([]float64(nil), a.m[i]...)
		s.V[j] = append([]float64(nil), a.v[i]...)
	}
	return s, nil
}

// NewAdamFromState rebuilds an Adam optimizer over params from a state
// exported with ExportStateFor using the same parameter ordering. The
// state is validated whole before any of it is adopted.
func NewAdamFromState(params []*Param, lr float64, s AdamState) (*Adam, error) {
	if len(s.Offsets) != len(params) || len(s.M) != len(params) || len(s.V) != len(params) {
		return nil, fmt.Errorf("nn: Adam state covers %d/%d/%d parameters, want %d",
			len(s.Offsets), len(s.M), len(s.V), len(params))
	}
	for i, p := range params {
		if len(s.M[i]) != p.Data.Len() || len(s.V[i]) != p.Data.Len() {
			return nil, fmt.Errorf("nn: Adam state parameter %d has %d/%d moments, want %d",
				i, len(s.M[i]), len(s.V[i]), p.Data.Len())
		}
		if s.Offsets[i] < 0 || s.Offsets[i] > s.T {
			return nil, fmt.Errorf("nn: Adam state parameter %d has step offset %d outside [0, %d]",
				i, s.Offsets[i], s.T)
		}
	}
	a := NewAdam(params, lr)
	a.t = s.T
	for i := range params {
		a.t0[i] = s.Offsets[i]
		copy(a.m[i], s.M[i])
		copy(a.v[i], s.V[i])
	}
	return a, nil
}
