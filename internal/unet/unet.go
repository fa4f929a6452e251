// Package unet builds the fully convolutional U-Net used as the MGDiffNet
// generator G_nn. The architecture follows §4.1 of the paper: depth-3
// encoder/decoder with skip connections, convolution + batch-norm blocks,
// LeakyReLU activations, a Sigmoid on the final layer, 16 starting filters
// doubling with depth, and all downsampling by a factor of two — which makes
// the network resolution-agnostic and therefore usable at every multigrid
// level with the same weights.
package unet

import (
	"fmt"
	"math/rand"

	"mgdiffnet/internal/nn"
	"mgdiffnet/internal/tensor"
)

// Config describes a U-Net instance.
type Config struct {
	// Dim is the spatial dimensionality: 2 (NCHW) or 3 (NCDHW).
	Dim int
	// InChannels is the number of input field channels (1: diffusivity).
	InChannels int
	// OutChannels is the number of output field channels (1: solution).
	OutChannels int
	// Depth is the number of down/up-sampling stages (paper: 3).
	Depth int
	// BaseFilters is the channel count of the first level (paper: 16);
	// filters double at every deeper level.
	BaseFilters int
	// Kernel is the convolution kernel size (3 with padding 1).
	Kernel int
	// NegSlope is the LeakyReLU negative slope.
	NegSlope float64
	// BatchNorm enables the batch-normalization layers of each block.
	BatchNorm bool
	// FinalSigmoid applies the paper's Sigmoid output activation; when
	// false the output is linear (used in ablations).
	FinalSigmoid bool
	// DirectConv pins every convolution (2D and 3D) to the direct order
	// (nn.ConvDirect, the correctness oracle): bias first in the forward
	// sums, direct backward nests, and the row gather for 2D upsampling.
	// When false — the default — layers pick the lowered order
	// automatically (always in 2D, from the nn.ConvAuto volume threshold
	// in 3D): bias last in the forward sums, im2col+GEMM backward, and a
	// GEMM 2D upsampler. Every other forward reads input rows in place
	// either way, so megavoxel inference is as fast with it as without.
	// Old gob snapshots decode this as false.
	DirectConv bool
	// Seed drives deterministic weight initialization.
	Seed int64
}

// DefaultConfig returns the paper's architecture for the given
// dimensionality.
func DefaultConfig(dim int) Config {
	return Config{
		Dim:          dim,
		InChannels:   1,
		OutChannels:  1,
		Depth:        3,
		BaseFilters:  16,
		Kernel:       3,
		NegSlope:     0.01,
		BatchNorm:    true,
		FinalSigmoid: true,
		Seed:         42,
	}
}

// block is one convolution + (optional) batch-norm + LeakyReLU unit.
type block struct {
	seq *nn.Sequential
}

func (b *block) forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return b.seq.Forward(x, train)
}
func (b *block) backward(g *tensor.Tensor) *tensor.Tensor { return b.seq.Backward(g) }
func (b *block) params() []*nn.Param                      { return b.seq.Params() }

// UNet is the fully convolutional encoder/decoder with skip connections.
// It implements nn.Layer so it can be dropped anywhere a layer is expected.
type UNet struct {
	Cfg Config
	rng *rand.Rand

	enc  []*block // encoder blocks, one per level
	pool []*nn.MaxPool
	mid  *block     // bottleneck block
	up   []nn.Layer // transpose convolutions, decoder order (deepest first)
	dec  []*block   // decoder blocks, decoder order (deepest first)
	head *nn.Sequential

	// refinement holds extra layers appended by Adapt (§4.1.2);
	// adaptions counts Adapt calls so serialization can replay them.
	refinement []nn.Layer
	adaptions  int

	// caches for Backward
	skipChannels []int

	// reuse mirrors nn.SetBufferReuse across the constituent layers and
	// additionally recycles the decoder's split tensors below. Enabled by
	// owners whose training loop never retains activations across passes
	// (core.Trainer).
	reuse     bool
	skips     []*tensor.Tensor
	skipGrads []*tensor.Tensor
	splitUp   []*tensor.Tensor // decoder split: up-path gradient halves
	splitSkip []*tensor.Tensor // decoder split: skip-path gradient halves
	refHP     []bool           // which refinement layers carry parameters

	// arena holds every activation of an inference clone; nil otherwise.
	arena *arena
}

// validate reports the first rule cfg breaks. New panics on it; Load
// returns it, so a corrupt checkpoint is an error rather than a crash.
func (cfg Config) validate() error {
	switch {
	case cfg.Dim != 2 && cfg.Dim != 3:
		return fmt.Errorf("unet: Dim must be 2 or 3, got %d", cfg.Dim)
	case cfg.Depth < 1:
		return fmt.Errorf("unet: Depth must be >= 1, got %d", cfg.Depth)
	case cfg.Kernel < 1 || cfg.Kernel%2 == 0:
		return fmt.Errorf("unet: Kernel must be odd and positive so padding preserves extent, got %d", cfg.Kernel)
	case cfg.InChannels < 1 || cfg.OutChannels < 1 || cfg.BaseFilters < 1:
		return fmt.Errorf("unet: channel and filter counts must be positive, got InChannels %d, OutChannels %d, BaseFilters %d",
			cfg.InChannels, cfg.OutChannels, cfg.BaseFilters)
	}
	return nil
}

// New builds a U-Net from cfg. It panics on invalid configurations so that
// construction errors surface at startup rather than mid-training.
func New(cfg Config) *UNet {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	u := &UNet{Cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	pad := cfg.Kernel / 2

	ch := func(level int) int { return cfg.BaseFilters << level }

	prev := cfg.InChannels
	for l := 0; l < cfg.Depth; l++ {
		u.enc = append(u.enc, u.newBlock(fmt.Sprintf("enc%d", l), prev, ch(l), cfg.Kernel, pad))
		u.pool = append(u.pool, nn.NewMaxPool(2))
		prev = ch(l)
	}
	u.mid = u.newBlock("mid", prev, ch(cfg.Depth), cfg.Kernel, pad)

	// Decoder from deepest to shallowest.
	for l := cfg.Depth - 1; l >= 0; l-- {
		inCh := ch(l + 1)
		u.up = append(u.up, u.newUp(fmt.Sprintf("up%d", l), inCh, ch(l)))
		// After concat with the skip, channels are 2*ch(l).
		u.dec = append(u.dec, u.newBlock(fmt.Sprintf("dec%d", l), 2*ch(l), ch(l), cfg.Kernel, pad))
	}

	final := u.newConv("final", cfg.BaseFilters, cfg.OutChannels, 1, 1, 0)
	u.head = nn.NewSequential(final)
	if cfg.FinalSigmoid {
		u.head.Append(nn.NewSigmoid())
	}
	u.skips = make([]*tensor.Tensor, cfg.Depth)
	u.skipGrads = make([]*tensor.Tensor, cfg.Depth)
	u.splitUp = make([]*tensor.Tensor, cfg.Depth)
	u.splitSkip = make([]*tensor.Tensor, cfg.Depth)
	return u
}

// SetBufferReuse toggles output-buffer recycling on every constituent
// layer (see nn.SetBufferReuse) and on the network-level decoder scratch.
// It is sound only when no caller retains a Forward output or Backward
// gradient across passes; training loops that consume each activation
// within the step qualify. Layers added by later Adapt calls inherit the
// current setting. Every layer keeps its own buffer, so a reuse-on
// network holds all its activations at once; an inference-only replica
// is better made with InferenceClone, whose arena holds only those live
// together.
func (u *UNet) SetBufferReuse(on bool) {
	u.reuse = on
	for _, b := range u.enc {
		nn.SetBufferReuse(b.seq, on)
	}
	for _, p := range u.pool {
		nn.SetBufferReuse(p, on)
	}
	nn.SetBufferReuse(u.mid.seq, on)
	for i := range u.up {
		nn.SetBufferReuse(u.up[i], on)
		nn.SetBufferReuse(u.dec[i].seq, on)
	}
	for _, r := range u.refinement {
		nn.SetBufferReuse(r, on)
	}
	nn.SetBufferReuse(u.head, on)
	if !on {
		for i := range u.splitUp {
			u.splitUp[i], u.splitSkip[i] = nil, nil
		}
	}
}

func (u *UNet) newConv(name string, in, out, k, s, p int) nn.Layer {
	if u.Cfg.Dim == 2 {
		c := nn.NewConv2D(u.rng, name, in, out, k, s, p)
		if u.Cfg.DirectConv {
			c.Algo = nn.ConvDirect
		}
		return c
	}
	c := nn.NewConv3D(u.rng, name, in, out, k, s, p)
	if u.Cfg.DirectConv {
		c.Algo = nn.ConvDirect
	}
	return c
}

func (u *UNet) newConvT(name string, in, out, k, s, p int) nn.Layer {
	if u.Cfg.Dim == 2 {
		c := nn.NewConvTranspose2D(u.rng, name, in, out, k, s, p)
		if u.Cfg.DirectConv {
			c.Algo = nn.ConvDirect
		}
		return c
	}
	return nn.NewConvTranspose3D(u.rng, name, in, out, k, s, p)
}

func (u *UNet) newUp(name string, in, out int) nn.Layer {
	// Kernel 2 / stride 2 exactly doubles the extent (adjoint of pooling).
	return u.newConvT(name, in, out, 2, 2, 0)
}

func (u *UNet) newBlock(name string, in, out, k, pad int) *block {
	seq := nn.NewSequential(u.newConv(name+".conv", in, out, k, 1, pad))
	if u.Cfg.BatchNorm {
		seq.Append(nn.NewBatchNorm(name+".bn", out))
	}
	seq.Append(nn.NewLeakyReLU(u.Cfg.NegSlope))
	return &block{seq: seq}
}

// MinInputSize returns the smallest spatial extent the network accepts:
// the input must survive Depth halvings.
func (u *UNet) MinInputSize() int { return 1 << u.Cfg.Depth }

// ValidateRes reports whether a square/cubic domain of extent res per
// spatial axis is a feasible input size, as an error instead of the panic
// checkShape raises mid-forward. Front ends (cmd/mginfer, internal/serve)
// call this after loading a model so an incompatible resolution becomes a
// one-line diagnostic naming the allowed granularity.
func (u *UNet) ValidateRes(res int) error {
	m := u.MinInputSize()
	if res < m || res%m != 0 {
		return fmt.Errorf("unet: resolution %d is not a positive multiple of %d (the network pools the extent %d times, so inputs must come in steps of %d)",
			res, m, u.Cfg.Depth, m)
	}
	return nil
}

// ReceptiveFieldRadius returns the half-width of the network's receptive
// field along one spatial axis: output values more than this many rows
// from an artificially introduced boundary aligned to MinInputSize are
// unaffected by it. An unaligned boundary can reach farther, because the
// max-pool windows then straddle it. The slab-decomposed
// inference in internal/dist, whose slab boundaries and halos are
// multiples of MinInputSize, sizes its halo from this bound.
//
// The receptive-field size grows by (k-1)·jump per convolution and by
// jump per 2× max-pool, where jump is the product of strides below the
// layer; the kernel-2/stride-2 transpose convolutions add nothing because
// every output depends on exactly one input.
func (u *UNet) ReceptiveFieldRadius() int {
	k := u.Cfg.Kernel
	rf, jump := 1, 1
	for l := 0; l < u.Cfg.Depth; l++ {
		rf += (k - 1) * jump // encoder conv
		rf += jump           // 2× max-pool
		jump *= 2
	}
	rf += (k - 1) * jump // bottleneck conv
	for l := u.Cfg.Depth - 1; l >= 0; l-- {
		jump /= 2
		rf += (k - 1) * jump // decoder conv (skip paths are strictly narrower)
	}
	for _, r := range u.refinement {
		// Adapt appends stride-1 conv and transpose-conv layers (kernel k)
		// plus activations; only the former widen the field.
		if len(r.Params()) > 0 {
			rf += k - 1
		}
	}
	return rf / 2
}

// checkShape validates an input shape and panics with a precise message.
func (u *UNet) checkShape(shape []int) {
	wantRank := u.Cfg.Dim + 2
	if len(shape) != wantRank {
		panic(fmt.Sprintf("unet: expected rank-%d input for %dD, got %v", wantRank, u.Cfg.Dim, append([]int(nil), shape...)))
	}
	if shape[0] < 1 {
		panic(fmt.Sprintf("unet: batch size %d must be positive", shape[0]))
	}
	if shape[1] != u.Cfg.InChannels {
		panic(fmt.Sprintf("unet: expected %d input channels, got %d", u.Cfg.InChannels, shape[1]))
	}
	min := u.MinInputSize()
	for _, d := range shape[2:] {
		if d < min || d%min != 0 {
			panic(fmt.Sprintf("unet: spatial extent %d must be a positive multiple of %d", d, min))
		}
	}
}

// Forward implements nn.Layer. With train=true all activations needed by
// Backward are cached inside the constituent layers.
//
// Each decoder convolution reads the up-convolution's output and the skip
// tensor as one input, up-path channels first, without a concatenated
// copy. At inference every block is one pass over its output: the
// convolution's write-out applies the block's BatchNorm and LeakyReLU
// (nn.Sequential.Forward), with the bits of running them as layers; the
// refinement layers of Adapt run as one such chain, so each activation
// there is fused or runs in place.
//
// Forward is not safe for concurrent calls on a shared network even with
// train=false: the layers reuse per-layer output and scratch buffers (see
// nn.SetBufferReuse). Give each goroutine its own replica, as
// internal/dist and internal/serve do with InferenceClone. On an
// inference clone, x must be its input slot (Input) or lie outside its
// arena.
func (u *UNet) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	u.checkShape(x.Shape())
	if a := u.arena; a != nil {
		if train {
			panic("unet: Forward(train=true) on an inference clone, whose activations share one arena and keep nothing for Backward; train a Clone")
		}
		u.frame(x.Dim(0), x.Shape()[2:])
		if x != a.views[0] && a.holds(x.Data) {
			panic("unet: the input lies in this inference clone's arena, which the pass overwrites; copy it out, or write it into Input")
		}
	}
	skips := u.skips
	u.skipChannels = u.skipChannels[:0]
	h := x
	for l := 0; l < u.Cfg.Depth; l++ {
		h = u.enc[l].forward(h, train)
		skips[l] = h
		u.skipChannels = append(u.skipChannels, h.Dim(1))
		h = u.pool[l].Forward(h, train)
	}
	h = u.mid.forward(h, train)
	for i := 0; i < u.Cfg.Depth; i++ {
		l := u.Cfg.Depth - 1 - i
		h = u.up[i].Forward(h, train)
		h = u.dec[i].seq.ForwardCat(h, skips[l], train)
	}
	// The skip scratch is only needed within this pass; drop the
	// references so a held network does not pin a batch of encoder
	// activations after the pass returns (with reuse on the layers own
	// those buffers anyway).
	for l := range skips {
		skips[l] = nil
	}
	refine := nn.Sequential{Layers: u.refinement}
	h = refine.Forward(h, train)
	return u.head.Forward(h, train)
}

// Backward implements nn.Layer, propagating through the skip topology.
func (u *UNet) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return u.BackwardWithHook(grad, nil)
}

// BackwardWithHook is Backward with a progress callback: onGroup(g) is
// invoked immediately after the parameter gradients of backward group g
// (see BackwardParamGroups) become final — that group's layer has finished
// its backward pass and nothing later in the traversal touches its
// gradients again. Group indices arrive strictly increasing from 0 to
// len(BackwardParamGroups())-1. dist.ParallelTrainer hooks in here to
// start each gradient bucket's allreduce while the rest of backward is
// still running. A nil hook makes it plain Backward.
func (u *UNet) BackwardWithHook(grad *tensor.Tensor, onGroup func(group int)) *tensor.Tensor {
	// The unconditional fire() calls below rely on a construction
	// invariant: head, decoder, upsampler, bottleneck and encoder units
	// always carry parameters (newBlock/newUp/newConv always install a
	// convolution), so they always correspond to a BackwardParamGroups
	// entry. Refinement layers are the only unit kind that can be
	// parameter-free (activations), hence the refHP guard. The
	// partition test (TestBackwardParamGroupsPartitionParams) and the
	// bucket planner's coverage check enforce the alignment.
	group := 0
	fire := func() {
		if onGroup != nil {
			onGroup(group)
		}
		group++
	}
	g := u.head.Backward(grad)
	fire()
	refHP := u.refinementHasParams()
	for i := len(u.refinement) - 1; i >= 0; i-- {
		g = u.refinement[i].Backward(g)
		if refHP[i] {
			fire()
		}
	}
	skipGrads := u.skipGrads
	for i := u.Cfg.Depth - 1; i >= 0; i-- {
		l := u.Cfg.Depth - 1 - i
		g = u.dec[i].backward(g)
		fire()
		upCh := u.skipChannels[l] // up path emitted ch(l) channels, same as skip
		var gs *tensor.Tensor
		if u.reuse {
			ga, gb := nn.SplitChannelsInto(u.splitUp[i], u.splitSkip[i], g, upCh, u.skipChannels[l])
			u.splitUp[i], u.splitSkip[i] = ga, gb
			g, gs = ga, gb
		} else {
			g, gs = nn.SplitChannels(g, upCh, u.skipChannels[l])
		}
		skipGrads[l] = gs
		g = u.up[i].Backward(g)
		fire()
	}
	g = u.mid.backward(g)
	fire()
	for l := u.Cfg.Depth - 1; l >= 0; l-- {
		g = u.pool[l].Backward(g)
		g.Add(skipGrads[l])
		skipGrads[l] = nil // per-pass scratch; see Forward
		g = u.enc[l].backward(g)
		fire()
	}
	return g
}

// BackwardParamGroups returns the network's parameters grouped by the unit
// (block or layer) that finalizes them, in backward-completion order: the
// output head first, then refinement layers in reverse, the decoder from
// shallowest to deepest (each level's conv block before its upsampler),
// the bottleneck, and finally the encoder from deepest to shallowest.
// Units without parameters are omitted. The ordering matches the hook
// sequence of BackwardWithHook exactly: group g's gradients are final when
// onGroup(g) fires.
func (u *UNet) BackwardParamGroups() [][]*nn.Param {
	var gs [][]*nn.Param
	add := func(ps []*nn.Param) {
		if len(ps) > 0 {
			gs = append(gs, ps)
		}
	}
	add(u.head.Params())
	for i := len(u.refinement) - 1; i >= 0; i-- {
		add(u.refinement[i].Params())
	}
	for i := u.Cfg.Depth - 1; i >= 0; i-- {
		add(u.dec[i].params())
		add(u.up[i].Params())
	}
	add(u.mid.params())
	for l := u.Cfg.Depth - 1; l >= 0; l-- {
		add(u.enc[l].params())
	}
	return gs
}

// refinementHasParams caches which refinement layers carry parameters so
// the backward hot path does not rebuild parameter slices every batch. The
// cache keys on the refinement length, which every Adapt call changes.
func (u *UNet) refinementHasParams() []bool {
	if len(u.refHP) != len(u.refinement) {
		u.refHP = u.refHP[:0]
		for _, r := range u.refinement {
			u.refHP = append(u.refHP, len(r.Params()) > 0)
		}
	}
	return u.refHP
}

// Params implements nn.Layer.
func (u *UNet) Params() []*nn.Param {
	var ps []*nn.Param
	for _, b := range u.enc {
		ps = append(ps, b.params()...)
	}
	ps = append(ps, u.mid.params()...)
	for i := range u.up {
		ps = append(ps, u.up[i].Params()...)
		ps = append(ps, u.dec[i].params()...)
	}
	for _, r := range u.refinement {
		ps = append(ps, r.Params()...)
	}
	ps = append(ps, u.head.Params()...)
	return ps
}

// ParamCount returns the total number of trainable scalars.
func (u *UNet) ParamCount() int {
	n := 0
	for _, p := range u.Params() {
		n += p.NumElements()
	}
	return n
}

// Adapt implements the paper's architectural adaptation (§4.1.2): when
// moving from a coarse training level to a finer one, append one
// convolutional layer and two stride-1 transpose-convolutional layers
// (randomly initialized) before the output head, and remove the last
// previously added transpose-convolutional layer if one exists. It returns
// the freshly created parameters so the caller can register them with the
// optimizer (see nn.Adam.ExtendParams).
func (u *UNet) Adapt() []*nn.Param {
	c := u.Cfg.BaseFilters
	k := u.Cfg.Kernel
	pad := k / 2

	// Remove one learned transpose conv from the previous adaptation.
	if n := len(u.refinement); n > 0 {
		u.refinement = u.refinement[:n-1]
	}

	idx := len(u.refinement)
	conv := u.newConv(fmt.Sprintf("adapt%d.conv", idx), c, c, k, 1, pad)
	act1 := nn.NewLeakyReLU(u.Cfg.NegSlope)
	// Stride-1 transpose convolutions preserve extent: (n-1) - 2*pad + k = n.
	tc1 := u.newConvT(fmt.Sprintf("adapt%d.tconv1", idx), c, c, k, 1, pad)
	act2 := nn.NewLeakyReLU(u.Cfg.NegSlope)
	tc2 := u.newConvT(fmt.Sprintf("adapt%d.tconv2", idx), c, c, k, 1, pad)

	u.refinement = append(u.refinement, conv, act1, tc1, act2, tc2)
	u.adaptions++
	if u.arena != nil {
		u.arena.recs = nil // replan for the new topology
	}
	if u.reuse {
		for _, l := range []nn.Layer{conv, act1, tc1, act2, tc2} {
			nn.SetBufferReuse(l, true)
		}
	}

	var fresh []*nn.Param
	fresh = append(fresh, conv.Params()...)
	fresh = append(fresh, tc1.Params()...)
	fresh = append(fresh, tc2.Params()...)
	return fresh
}

// Clone returns a deep copy of the network (weights, batch-norm running
// statistics, and adaptation stages). Distributed workers use this to build
// identical model replicas.
func (u *UNet) Clone() *UNet {
	c := New(u.Cfg)
	// Rebuild the same refinement structure by replaying Adapt.
	for len(clonedRefinementParams(c)) < len(clonedRefinementParams(u)) {
		c.Adapt()
	}
	dst := c.Params()
	src := u.Params()
	if len(dst) != len(src) {
		panic("unet: Clone parameter mismatch")
	}
	for i := range dst {
		dst[i].Data.CopyFrom(src[i].Data)
	}
	copyBN(c, u)
	return c
}

func clonedRefinementParams(u *UNet) []*nn.Param {
	var ps []*nn.Param
	for _, r := range u.refinement {
		ps = append(ps, r.Params()...)
	}
	return ps
}

// copyBN copies batch-norm running statistics from src to dst.
func copyBN(dst, src *UNet) {
	db, sb := collectBN(dst), collectBN(src)
	for i := range db {
		copy(db[i].RunningMean, sb[i].RunningMean)
		copy(db[i].RunningVar, sb[i].RunningVar)
	}
}

func collectBN(u *UNet) []*nn.BatchNorm {
	var bns []*nn.BatchNorm
	var scan func(l nn.Layer)
	scan = func(l nn.Layer) {
		switch v := l.(type) {
		case *nn.BatchNorm:
			bns = append(bns, v)
		case *nn.Sequential:
			for _, ll := range v.Layers {
				scan(ll)
			}
		}
	}
	for _, b := range u.enc {
		scan(b.seq)
	}
	scan(u.mid.seq)
	for _, b := range u.dec {
		scan(b.seq)
	}
	for _, r := range u.refinement {
		scan(r)
	}
	scan(u.head)
	return bns
}
