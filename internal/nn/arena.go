package nn

import "fmt"

// Arena re-backs the Data and Grad tensors of a parameter list as views
// into two contiguous float64 slabs. The flat layout is what makes the
// training hot path cheap:
//
//   - the whole gradient state is zeroed with one memset (ZeroGrad) instead
//     of a per-parameter walk;
//   - a data-parallel allreduce operates directly on the gradient slab —
//     no per-batch gather/scatter between per-layer tensors and a
//     communication buffer (the memcpys the PR-3 profile was dominated by);
//   - Adam sweeps the slabs in fused contiguous runs (see Adam.Step)
//     instead of one small loop per parameter tensor.
//
// Construction copies the current parameter values into the slabs and then
// Rebases each tensor, so layers keep reading and writing through their
// *Param pointers without knowing about the arena. Offsets follow the
// parameter order given to NewArena, which callers should keep equal to
// the network's canonical Params() order.
type Arena struct {
	params []*Param
	data   []float64
	grad   []float64
	off    []int // len(params)+1 cumulative element offsets
}

// NewArena builds an arena over params and re-backs every parameter's Data
// and Grad into the shared slabs. The parameter list must not contain
// duplicates.
func NewArena(params []*Param) *Arena {
	a := &Arena{}
	seen := make(map[*Param]struct{}, len(params))
	off := make([]int, len(params)+1)
	for i, p := range params {
		if _, dup := seen[p]; dup {
			panic(fmt.Sprintf("nn: Arena given duplicate parameter %q", p.Name))
		}
		seen[p] = struct{}{}
		off[i+1] = off[i] + p.NumElements()
	}
	n := off[len(params)]
	data := make([]float64, n)
	grad := make([]float64, n)
	for i, p := range params {
		lo, hi := off[i], off[i+1]
		copy(data[lo:hi], p.Data.Data)
		copy(grad[lo:hi], p.Grad.Data)
		p.Data.Rebase(data[lo:hi:hi])
		p.Grad.Rebase(grad[lo:hi:hi])
		p.arena = a
		p.arenaIdx = i
	}
	a.params = append([]*Param(nil), params...)
	a.data, a.grad, a.off = data, grad, off
	return a
}

// Len returns the total number of elements in each slab.
func (a *Arena) Len() int { return a.off[len(a.params)] }

// Data returns the contiguous parameter-value slab.
func (a *Arena) Data() []float64 { return a.data }

// Grad returns the contiguous gradient slab.
func (a *Arena) Grad() []float64 { return a.grad }

// Span returns the [lo, hi) slab range of parameter p, or ok=false when p
// is not covered by this arena.
func (a *Arena) Span(p *Param) (lo, hi int, ok bool) {
	if p == nil || p.arena != a {
		return 0, 0, false
	}
	i := p.arenaIdx
	return a.off[i], a.off[i+1], true
}

// ZeroGrad clears the whole gradient slab with a single memset — the flat
// equivalent of ZeroGrads over every covered layer.
func (a *Arena) ZeroGrad() {
	for i := range a.grad {
		a.grad[i] = 0
	}
}
