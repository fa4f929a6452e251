package dist

import (
	"fmt"
	"sync"

	"mgdiffnet/internal/tensor"
	"mgdiffnet/internal/unet"
)

// HaloFor returns the halo width (in rows of the first spatial axis) that
// SpatialInference needs to reproduce the monolithic forward pass of net
// exactly: the receptive-field radius, rounded up to a multiple of the
// network's minimum input size so slab inputs stay aligned with the 2×
// pooling grid of the full-domain pass.
func HaloFor(net *unet.UNet) int {
	m := net.MinInputSize()
	r := net.ReceptiveFieldRadius()
	return (r + m - 1) / m * m
}

// SpatialInference evaluates a U-Net on a domain decomposed into slabs
// along the first spatial axis — the paper's model-parallel extension
// (§5): each worker owns one slab, copies its rows plus a halo on each
// interior side straight from the input, runs the forward pass on that
// extended slab, and keeps only the interior. The halo is a copy of input
// rows, so the layers exchange nothing. Because the halo covers the
// receptive field and slab boundaries are aligned with the pooling grid,
// every retained output value is computed from exactly the same inputs as
// the monolithic pass.
//
// When both passes run the same arithmetic the results agree bit-for-bit.
// Every convolution forward reads input rows in place at every size, and
// a 2D or transposed convolution always adds its bias first, so a 2D net's
// slabs match its monolithic pass bit for bit. A Dim-3 nn.Conv is the one
// exception: the nn.ConvAuto volume threshold decides where its bias
// enters each sum (first below 32³ output voxels per sample, last from
// there on), so a slab's smaller extended volume can add it at the other
// end than the monolithic pass near the threshold, and the results agree
// to rounding (≲1e-13) instead; pin unet.Config.DirectConv to recover
// exact bitwise equality.
// SpatialInference is safe for concurrent Forward/ForwardInto calls: a
// pass owns the worker replicas exclusively, so concurrent callers
// serialize on an internal mutex (the slab workers still run in parallel
// inside each pass). Each worker's replica is an inference clone
// (unet.UNet.InferenceClone): it copies its extended slab into its own
// input slot and keeps every activation in one arena planned by lifetime,
// so a steady-state pass allocates nothing beyond the replicas' own
// forwards, one goroutine closure per slab but the last, and the output
// tensor — not even that tensor when the caller provides one to
// ForwardInto.
type SpatialInference struct {
	workers int
	halo    int
	nets    []*unet.UNet // one inference clone per worker

	mu       sync.Mutex     // one pass at a time; guards the replicas and shapeBuf
	wg       sync.WaitGroup // the slab workers of the current pass
	shapeBuf []int          // output-shape scratch, grown once
}

// NewSpatialInference builds a slab-decomposed evaluator over workers
// clones of net. halo is the overlap in rows on each interior slab
// boundary; pass HaloFor(net) for an exact decomposition.
func NewSpatialInference(net *unet.UNet, workers, halo int) (*SpatialInference, error) {
	if net == nil {
		return nil, fmt.Errorf("dist: nil network")
	}
	if workers < 1 {
		return nil, fmt.Errorf("dist: workers must be >= 1, got %d", workers)
	}
	m := net.MinInputSize()
	if workers > 1 {
		if halo < net.ReceptiveFieldRadius() {
			return nil, fmt.Errorf("dist: halo %d smaller than receptive-field radius %d; slabs would not match the monolithic forward",
				halo, net.ReceptiveFieldRadius())
		}
		if halo%m != 0 {
			return nil, fmt.Errorf("dist: halo %d must be a multiple of the U-Net minimum input size %d", halo, m)
		}
	}
	if workers == 1 {
		halo = 0 // one slab has no interior boundary
	}
	si := &SpatialInference{workers: workers, halo: halo}
	for w := 0; w < workers; w++ {
		// The replicas are owned outright and every output is copied into
		// the caller-visible tensor before the pass returns, so they can
		// keep their activations in an arena that the next pass overwrites.
		si.nets = append(si.nets, net.InferenceClone())
	}
	return si, nil
}

// Halo returns the halo width: the configured one, or 0 for one slab.
func (s *SpatialInference) Halo() int { return s.halo }

// CheckRows reports whether an input whose first spatial axis has h rows
// splits into the configured slabs: h divisible by the slab count, each
// slab a multiple of the U-Net minimum input size, and no halo taller
// than a slab.
func (s *SpatialInference) CheckRows(h int) error {
	if h%s.workers != 0 {
		return fmt.Errorf("dist: extent %d not divisible into %d slabs", h, s.workers)
	}
	slab := h / s.workers
	if m := s.nets[0].MinInputSize(); slab%m != 0 {
		return fmt.Errorf("dist: slab height %d must be a multiple of the U-Net minimum input size %d", slab, m)
	}
	if s.halo > slab {
		return fmt.Errorf("dist: halo %d exceeds slab height %d; use fewer workers or a larger domain", s.halo, slab)
	}
	return nil
}

// tailSize returns the number of elements per row of the first spatial
// axis (W in 2D, H·W in 3D).
func tailSize(t *tensor.Tensor) int {
	n := 1
	for i := 3; i < t.Rank(); i++ {
		n *= t.Dim(i)
	}
	return n
}

// copyRows copies rows [srcLo, srcLo+rows) of src's first spatial axis
// into dst starting at row dstLo. Batch, channel, and trailing spatial
// dimensions of the two tensors must agree.
func copyRows(dst, src *tensor.Tensor, dstLo, srcLo, rows int) {
	nc := src.Dim(0) * src.Dim(1)
	tail := tailSize(src)
	hs, hd := src.Dim(2), dst.Dim(2)
	for i := 0; i < nc; i++ {
		sBase := (i*hs + srcLo) * tail
		dBase := (i*hd + dstLo) * tail
		copy(dst.Data[dBase:dBase+rows*tail], src.Data[sBase:sBase+rows*tail])
	}
}

// Forward evaluates the decomposed network on x ([N, C, H, ...]) and
// returns the full-domain output, identical to nets[0].Forward(x, false).
// It is safe for concurrent use; see ForwardInto.
func (s *SpatialInference) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	return s.ForwardInto(nil, x)
}

// ForwardInto is Forward writing into a caller-provided output tensor. A
// nil or shape-mismatched dst is replaced by a fresh tensor; the tensor
// actually used is returned, so callers that hold onto it make the pass
// allocate, in steady state, only what the replicas' forwards do plus one
// closure per slab but the last. Concurrent calls are safe and serialize on an internal mutex
// (each pass already parallelizes across the slab workers internally, so
// overlapping passes would only thrash). The error reports an input the
// network or the decomposition cannot take; a valid input cannot fail.
//
//mglint:hotpath
func (s *SpatialInference) ForwardInto(dst, x *tensor.Tensor) (*tensor.Tensor, error) {
	cfg := s.nets[0].Cfg
	wantRank := cfg.Dim + 2
	if x.Rank() != wantRank {
		return nil, fmt.Errorf("dist: expected rank-%d input for %dD, got %v", wantRank, cfg.Dim, x.Shape())
	}
	if x.Dim(1) != cfg.InChannels {
		return nil, fmt.Errorf("dist: expected %d input channels, got %d", cfg.InChannels, x.Dim(1))
	}
	m := s.nets[0].MinInputSize()
	// Validate every spatial extent here rather than letting the network
	// panic inside a worker goroutine (which would kill the process).
	for i := 2; i < wantRank; i++ {
		if d := x.Dim(i); d < m || d%m != 0 {
			return nil, fmt.Errorf("dist: spatial extent %d must be a positive multiple of %d", d, m)
		}
	}
	if err := s.CheckRows(x.Dim(2)); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	// Build the output shape in reused scratch: these small per-call
	// slices were the last steady-state allocations in the pass
	// (tensor.New copies the shape, so handing it scratch is safe).
	if cap(s.shapeBuf) < wantRank {
		s.shapeBuf = make([]int, wantRank)
	}
	outShape := s.shapeBuf[:wantRank]
	copy(outShape, x.Shape())
	outShape[1] = cfg.OutChannels
	out := dst
	if out == nil || !out.ShapeIs(outShape...) {
		//mglint:ignore hotalloc allocates only when the caller passes no reusable dst; callers that hold the returned tensor pay this once, which is the documented ForwardInto contract
		out = tensor.New(outShape...)
	}

	// The last slab runs on this goroutine, so one slab forks nothing.
	slab := x.Dim(2) / s.workers
	last := s.workers - 1
	s.wg.Add(s.workers)
	for w := 0; w < last; w++ {
		//mglint:ignore hotalloc one goroutine and closure per extra slab per pass is the fan-out design; the slab's convolution work dwarfs both
		go s.forwardSlab(w, x, out, slab)
	}
	s.forwardSlab(last, x, out, slab)
	s.wg.Wait()
	return out, nil
}

// forwardSlab is one worker's share of Forward: copy the slab and its
// halos from x into the replica's input slot, run the network on the
// extended slab, keep the interior. A slab spanning every row forwards x
// itself.
func (s *SpatialInference) forwardSlab(w int, x, out *tensor.Tensor, slab int) {
	defer s.wg.Done()
	net := s.nets[w]
	lo := w * slab
	lo2, hi2 := max(lo-s.halo, 0), min(lo+slab+s.halo, x.Dim(2))
	ext := x
	if hi2-lo2 < x.Dim(2) {
		var shape [5]int
		copy(shape[:], x.Shape())
		shape[2] = hi2 - lo2
		ext = net.Input(shape[:x.Rank()]...)
		copyRows(ext, x, 0, lo2, hi2-lo2)
	}
	y := net.Forward(ext, false)
	copyRows(out, y, lo, lo-lo2, slab)
}
