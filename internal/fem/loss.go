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

	mu  sync.Mutex
	p2d map[int]*Problem2D
	p3d map[int]*Problem3D

	// Scratch reuse (SetScratchReuse): Eval recycles its gradient output
	// and per-sample BC-imposed field instead of allocating fresh tensors
	// every batch. Guarded by the opt-in because the returned gradient is
	// then overwritten by the next Eval, and because the scratch makes Eval
	// single-flight: enable it only on a privately owned loss whose caller
	// consumes the gradient within the step, as core.Trainer does.
	reuse    bool
	gradBuf  *tensor.Tensor
	fieldBuf *tensor.Tensor
	// Per-sample window tensors, re-pointed at each sample's slice with
	// Rebase instead of building fresh FromSlice views every iteration.
	viewPred, viewNu, viewGrad *tensor.Tensor
}

// SetScratchReuse toggles Eval scratch recycling; see the field comment
// for the ownership contract. WithBC is unaffected and always returns a
// fresh tensor.
func (l *EnergyLoss) SetScratchReuse(on bool) {
	l.reuse = on
	if !on {
		l.gradBuf, l.fieldBuf = nil, nil
		l.viewPred, l.viewNu, l.viewGrad = nil, nil, nil
	}
}

// sampleViews returns the three per-sample window tensors over the given
// slices, recycling the cached views when reuse is on and the sample shape
// is unchanged.
func (l *EnergyLoss) sampleViews(pred, nu, grad []float64, res int) (p, n, g *tensor.Tensor) {
	shape := spatialShape(l.Dim, res)
	if l.reuse && l.viewPred != nil && len(l.viewPred.Data) == len(pred) {
		l.viewPred.Rebase(pred)
		l.viewNu.Rebase(nu)
		l.viewGrad.Rebase(grad)
		return l.viewPred, l.viewNu, l.viewGrad
	}
	p = tensor.FromSlice(pred, shape...)
	n = tensor.FromSlice(nu, shape...)
	g = tensor.FromSlice(grad, shape...)
	if l.reuse {
		l.viewPred, l.viewNu, l.viewGrad = p, n, g
	}
	return p, n, g
}

// NewEnergyLoss builds an EnergyLoss for the given dimensionality.
func NewEnergyLoss(dim int) *EnergyLoss {
	if dim != 2 && dim != 3 {
		panic("fem: EnergyLoss dim must be 2 or 3")
	}
	return &EnergyLoss{Dim: dim, p2d: map[int]*Problem2D{}, p3d: map[int]*Problem3D{}}
}

// Problem2DAt returns (building if needed) the cached 2D problem at res.
func (l *EnergyLoss) Problem2DAt(res int) *Problem2D {
	l.mu.Lock()
	defer l.mu.Unlock()
	p, ok := l.p2d[res]
	if !ok {
		p = NewPoisson2D(res)
		l.p2d[res] = p
	}
	return p
}

// Problem3DAt returns (building if needed) the cached 3D problem at res.
func (l *EnergyLoss) Problem3DAt(res int) *Problem3D {
	l.mu.Lock()
	defer l.mu.Unlock()
	p, ok := l.p3d[res]
	if !ok {
		p = NewPoisson3D(res)
		l.p3d[res] = p
	}
	return p
}

// Eval maps a batched network prediction and its diffusivity input to the
// scalar training loss and its gradient with respect to the prediction.
// pred and nu have shape [N, 1, R, R] (2D) or [N, 1, R, R, R] (3D); the
// two must agree. The returned gradient has the prediction's shape with
// zeros at Dirichlet nodes (the prediction there is discarded by
// Algorithm 1, so it receives no gradient).
func (l *EnergyLoss) Eval(pred, nu *tensor.Tensor) (float64, *tensor.Tensor) {
	wantRank := l.Dim + 2
	if pred.Rank() != wantRank || !pred.SameShape(nu) {
		panic(fmt.Sprintf("fem: EnergyLoss expects matching rank-%d tensors, got %v and %v", wantRank, pred.Shape(), nu.Shape()))
	}
	n := pred.Dim(0)
	res := pred.Dim(2)
	per := pred.Len() / n
	var grad *tensor.Tensor
	if l.reuse && l.gradBuf != nil && l.gradBuf.SameShape(pred) {
		grad = l.gradBuf
		grad.Zero() // AddEnergyGrad accumulates into it
	} else {
		grad = tensor.New(pred.Shape()...)
		if l.reuse {
			l.gradBuf = grad
		}
	}
	total := 0.0
	invN := 1.0 / float64(n)

	for s := 0; s < n; s++ {
		predS, nuS, gradS := l.sampleViews(
			pred.Data[s*per:(s+1)*per], nu.Data[s*per:(s+1)*per], grad.Data[s*per:(s+1)*per], res)

		var u *tensor.Tensor
		if l.reuse && l.fieldBuf != nil && l.fieldBuf.SameShape(predS) {
			u = l.fieldBuf
			u.CopyFrom(predS)
		} else {
			u = predS.Clone()
			if l.reuse {
				l.fieldBuf = u
			}
		}
		if l.Dim == 2 {
			p := l.Problem2DAt(res)
			p.ApplyBC(u)
			total += p.Energy(u, nuS)
			p.AddEnergyGrad(u, nuS, gradS)
			p.MaskInterior(gradS)
		} else {
			p := l.Problem3DAt(res)
			p.ApplyBC(u)
			total += p.Energy(u, nuS)
			p.AddEnergyGrad(u, nuS, gradS)
			p.MaskInterior(gradS)
		}
	}
	grad.Scale(invN)
	return total * invN, grad
}

// WithBC returns a copy of the raw batch prediction with the exact boundary
// values imposed (Algorithm 1 step 8) — the field a user of the solver
// receives.
func (l *EnergyLoss) WithBC(pred *tensor.Tensor) *tensor.Tensor {
	out := pred.Clone()
	n := pred.Dim(0)
	res := pred.Dim(2)
	per := pred.Len() / n
	for s := 0; s < n; s++ {
		uS := tensor.FromSlice(out.Data[s*per:(s+1)*per], spatialShape(l.Dim, res)...)
		if l.Dim == 2 {
			l.Problem2DAt(res).ApplyBC(uS)
		} else {
			l.Problem3DAt(res).ApplyBC(uS)
		}
	}
	return out
}

func spatialShape(dim, res int) []int {
	if dim == 2 {
		return []int{res, res}
	}
	return []int{res, res, res}
}
