package fem

import (
	"fmt"
	"sync"

	"mgdiffnet/internal/tensor"
)

// EnergyLoss is the paper's variational FEM loss (§3.1.1) with exact
// Dirichlet imposition (Algorithm 1): the raw prediction is masked to the
// interior, boundary nodes are overwritten with the Dirichlet data, and the
// loss is the mean energy functional J over the mini-batch. Because J is
// minimized exactly by the PDE solution, no labelled data and no boundary
// penalty weight are needed.
//
// EnergyLoss is resolution-agnostic: problems are built lazily per
// resolution and cached, so the same loss object serves every multigrid
// level.
type EnergyLoss struct {
	// Dim is 2 or 3 and must match the batch rank (Dim+2).
	Dim int

	mu       sync.Mutex
	problems map[int]*Problem

	// Scratch reuse (SetScratchReuse): Eval recycles its gradient output
	// and its BC-imposed field instead of allocating fresh ones every
	// batch. Guarded by the opt-in because the returned gradient is then
	// overwritten by the next Eval, and because the scratch makes Eval
	// single-flight: enable it only on a privately owned loss whose caller
	// consumes the gradient within the step, as core.Trainer does.
	reuse    bool
	gradBuf  *tensor.Tensor
	fieldBuf []float64
}

// SetScratchReuse toggles Eval scratch recycling; see the field comment
// for the ownership contract. WithBC is unaffected and always returns a
// fresh tensor.
func (l *EnergyLoss) SetScratchReuse(on bool) {
	l.reuse = on
	if !on {
		l.gradBuf, l.fieldBuf = nil, nil
	}
}

// NewEnergyLoss builds an EnergyLoss for the given dimensionality.
func NewEnergyLoss(dim int) *EnergyLoss {
	if dim != 2 && dim != 3 {
		panic("fem: EnergyLoss dim must be 2 or 3")
	}
	return &EnergyLoss{Dim: dim, problems: map[int]*Problem{}}
}

// ProblemAt returns (building if needed) the cached problem at res.
func (l *EnergyLoss) ProblemAt(res int) *Problem {
	l.mu.Lock()
	defer l.mu.Unlock()
	p, ok := l.problems[res]
	if !ok {
		p = NewProblem(l.Dim, res)
		l.problems[res] = p
	}
	return p
}

// Problem3DAt is ProblemAt under its earlier name, kept for its one
// caller, the megavoxel probe at bench/traced.go:434.
func (l *EnergyLoss) Problem3DAt(res int) *Problem { return l.ProblemAt(res) }

// Eval maps a batched network prediction and its diffusivity input to the
// scalar training loss and its gradient with respect to the prediction.
// pred and nu have shape [N, 1, R, R] (2D) or [N, 1, R, R, R] (3D); the
// two must agree. The returned gradient has the prediction's shape with
// zeros at Dirichlet nodes (the prediction there is discarded by
// Algorithm 1, so it receives no gradient).
func (l *EnergyLoss) Eval(pred, nu *tensor.Tensor) (float64, *tensor.Tensor) {
	if !pred.SameShape(nu) {
		panic(fmt.Sprintf("fem: EnergyLoss prediction %v and ν %v differ in shape", pred.Shape(), nu.Shape()))
	}
	p := l.ProblemAt(l.batchRes(pred))
	n := pred.Dim(0)
	per := pred.Len() / n
	grad, u := l.gradBuf, l.fieldBuf
	if !l.reuse || grad == nil || !grad.SameShape(pred) {
		grad, u = tensor.New(pred.Shape()...), make([]float64, per)
		if l.reuse {
			l.gradBuf, l.fieldBuf = grad, u
		}
	} else {
		grad.Zero() // addEnergyGrad accumulates into it
	}
	total := 0.0
	invN := 1.0 / float64(n)
	for s := 0; s < n; s++ {
		lo, hi := s*per, (s+1)*per
		copy(u, pred.Data[lo:hi])
		p.setEnds(u, 1, 0) // ApplyBC
		total += p.energy(u, nu.Data[lo:hi])
		p.addEnergyGrad(u, nu.Data[lo:hi], grad.Data[lo:hi])
		p.setEnds(grad.Data[lo:hi], 0, 0) // MaskInterior
	}
	grad.Scale(invN)
	return total * invN, grad
}

// WithBC returns a copy of the raw batch prediction with the exact boundary
// values imposed (Algorithm 1 step 8) — the field a user of the solver
// receives.
func (l *EnergyLoss) WithBC(pred *tensor.Tensor) *tensor.Tensor {
	p := l.ProblemAt(l.batchRes(pred))
	out := pred.Clone()
	p.setEnds(out.Data, 1, 0) // ApplyBC on every sample
	return out
}

// batchRes returns R for a batch of shape [N, 1, R, R] (2D) or
// [N, 1, R, R, R] (3D) with N ≥ 1 and R ≥ 2, and panics naming the shape
// otherwise.
func (l *EnergyLoss) batchRes(t *tensor.Tensor) int {
	s := t.Shape()
	dim, res, ok := gridOf(s[min(2, len(s)):])
	if !ok || dim != l.Dim || s[0] < 1 || s[1] != 1 {
		panic(fmt.Sprintf("fem: %dD EnergyLoss expects a batch of shape [N, 1] followed by %d equal extents R ≥ 2, got %v", l.Dim, l.Dim, s))
	}
	return res
}
