package core

import (
	"fmt"
	"os"
	"sync"
	"time"

	"mgdiffnet/internal/fem"
	"mgdiffnet/internal/field"
	"mgdiffnet/internal/sparse"
	"mgdiffnet/internal/tensor"
)

// SupervisedTrainer is the data-driven baseline the paper's introduction
// contrasts MGDiffNet with (Zhu & Zabaras-style surrogates): the same U-Net
// and schedules, but trained with a mean-squared-error loss against FEM
// solution labels instead of the label-free energy functional. Its label
// generation cost — one FEM solve per sample per resolution — is exactly
// the "data annotation" the paper's §4.3 notes its framework avoids, and
// is tracked separately so the comparison is honest.
type SupervisedTrainer struct {
	*Trainer

	// omegas is the parametric dataset (supervised training needs the ω
	// values to produce FEM labels).
	omegas *field.Dataset

	mu     sync.Mutex
	labels map[labelKey][]float64
	// LabelSeconds accumulates the wall-clock spent producing FEM labels.
	LabelSeconds float64
	// CGTol is the label solver tolerance.
	CGTol float64
}

type labelKey struct {
	sample int
	res    int
}

// NewSupervisedTrainer wraps a fresh Trainer with label-based training.
// The data source must be the parametric field.Dataset: labels are FEM
// solves of specific ω instances.
func NewSupervisedTrainer(cfg Config) *SupervisedTrainer {
	tr := NewTrainer(cfg)
	ds, ok := tr.Data.(*field.Dataset)
	if !ok {
		panic("core: SupervisedTrainer requires a *field.Dataset data source")
	}
	s := &SupervisedTrainer{
		Trainer: tr,
		omegas:  ds,
		labels:  map[labelKey][]float64{},
		CGTol:   1e-8,
	}
	// Every epoch the embedded trainer runs — TrainEpoch, EvalLoss, Run,
	// BaseCurve — scores against the FEM labels.
	tr.labelLoss = s.mseLoss
	return s
}

// label returns (solving and caching on first use) the FEM solution for
// dataset sample i at the given resolution.
func (s *SupervisedTrainer) label(i, res int) []float64 {
	key := labelKey{sample: i % s.omegas.Len(), res: res}
	s.mu.Lock()
	if l, ok := s.labels[key]; ok {
		s.mu.Unlock()
		return l
	}
	s.mu.Unlock()

	start := time.Now() //mglint:ignore detrand wall-clock telemetry for reported timings; never feeds the numeric path
	w := s.omegas.Omegas[key.sample]
	var u *tensor.Tensor
	var cg sparse.CGResult
	if s.Cfg.Dim == 2 {
		u, cg = fem.Solve2D(field.Raster2D(w, res), s.CGTol, 50*res*res)
	} else {
		u, cg = fem.Solve3D(field.Raster3D(w, res), s.CGTol, 50*res*res*res)
	}
	if !cg.Converged {
		// Training against an unconverged label corrupts the supervised
		// baseline the data-free comparison is measured against.
		fmt.Fprintf(os.Stderr, "core: WARNING: FEM label for sample %d at res %d did not converge after %d iterations (residual %.3g)\n",
			key.sample, res, cg.Iterations, cg.Residual)
	}
	sec := time.Since(start).Seconds()

	s.mu.Lock()
	s.labels[key] = u.Data
	s.LabelSeconds += sec
	s.mu.Unlock()
	return u.Data
}

// mseLoss is the supervised loss of the batch whose first sample is start:
// mean((u_pred − u_FEM)²) with Algorithm 1 BC imposition — Dirichlet nodes
// are overwritten (and receive no gradient). Labels are solved on first
// use, so a resolution's first epoch carries its label generation time.
func (s *SupervisedTrainer) mseLoss(pred *tensor.Tensor, start, res int) (float64, *tensor.Tensor) {
	n := pred.Dim(0)
	per := pred.Len() / n
	grad := tensor.New(pred.Shape()...)
	total := 0.0
	scale := 2.0 / float64(pred.Len())
	for b := 0; b < n; b++ {
		lab := s.label(start+b, res)
		u := pred.Data[b*per : (b+1)*per]
		g := grad.Data[b*per : (b+1)*per]
		for i := range u {
			v := u[i]
			if isDirichletIdx(i, res) {
				continue // exact BC: no error, no gradient
			}
			d := v - lab[i]
			total += d * d
			g[i] = scale * d
		}
	}
	return total / float64(pred.Len()), grad
}

func isDirichletIdx(i, res int) bool {
	ix := i % res
	return ix == 0 || ix == res-1
}
