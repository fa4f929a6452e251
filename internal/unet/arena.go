package unet

import (
	"slices"
	"sort"
	"unsafe"

	"mgdiffnet/internal/nn"
	"mgdiffnet/internal/tensor"
)

// record is one tensor the inference forward writes: the layer that
// writes it, its channel count and pooling level (its extents are the
// input's over 2^level), the step that writes it and the last step that
// reads it, and its place in the arena. Step i writes record i; the input
// slot is record 0, written by the caller before the pass. Sizes and
// offsets count values per sample in units of the coarsest level's volume
// (the input's over 2^(Dim·Depth)): every record's size is proportional
// to the input volume, so one plan serves every input shape.
type record struct {
	layer       nn.Layer // nil for the input slot
	ch, level   int
	first, last int
	size, off   int
}

// arena holds every activation of an inference clone (see InferenceClone)
// in one buffer laid out by place: records whose lifetimes intersect get
// disjoint storage, the others may share it.
type arena struct {
	recs  []record         // the plan; nil until the first pass and after Adapt
	size  int              // values per sample the plan needs, in recs' units
	views []*tensor.Tensor // one per record, re-pointed into buf by frame
	buf   []float64
}

// InferenceClone returns a copy of the network for inference only: every
// tensor its Forward writes — the input slot (Input), each encoder block
// and pool, the bottleneck, each up-convolution and decoder block, the
// refinement layers of Adapt, and the head — lives in one arena, placed
// once by lifetime. A batch of n samples takes n times the plan's size.
// The arena grows only when a larger batch or input arrives, and a pass
// re-points the views in place (tensor.Reframe), so a warm pass allocates
// nothing for its activations, whatever batch size it has. Only where
// values are stored changes: the outputs equal those of Clone bit for bit.
//
// Forward's result lives in the arena until the next Forward or Input
// call. Forward(x, true) panics: train a Clone instead. No parameter of
// the clone, nor of its later Adapt layers, has a gradient (Grad is nil).
func (u *UNet) InferenceClone() *UNet {
	c := u.Clone()
	c.arena = &arena{}
	for _, p := range c.Params() {
		p.Grad = nil
	}
	return c
}

// Input returns an inference clone's input slot re-pointed to shape
// ([N, InChannels, extents…]) with arbitrary contents: the caller fills
// it and passes it to Forward, and the slot's storage is reused once the
// first convolution has read it, so the input costs no volume of its own.
// It is valid until the next Input or Forward call. It panics on a
// network that is not an inference clone and on a shape Forward would
// refuse.
func (u *UNet) Input(shape ...int) *tensor.Tensor {
	if u.arena == nil {
		panic("unet: Input needs an inference clone (InferenceClone)")
	}
	u.checkShape(shape)
	u.frame(shape[0], shape[2:])
	return u.arena.views[0]
}

// records lists the tensors of the inference forward in step order.
func (u *UNet) records() []record {
	d, depth := u.Cfg.Dim, u.Cfg.Depth
	ch := func(level int) int { return u.Cfg.BaseFilters << level }
	size := func(c, level int) int { return c << (d * (depth - level)) }
	recs := []record{{ch: u.Cfg.InChannels, size: size(u.Cfg.InChannels, 0)}}
	write := func(l nn.Layer, c, level int, reads ...int) int {
		step := len(recs)
		for _, r := range reads {
			recs[r].last = step
		}
		recs = append(recs, record{layer: l, ch: c, level: level, first: step, last: step, size: size(c, level)})
		return step
	}
	// A block, a head and the refinement run as nn.Sequential chains whose
	// inference writes only the convolution's output: the BatchNorm and
	// LeakyReLU after it run in its write-out, any other activation in
	// place.
	conv := func(s *nn.Sequential) nn.Layer { return s.Layers[0] }
	skips := make([]int, depth)
	h := 0
	for l := 0; l < depth; l++ {
		skips[l] = write(conv(u.enc[l].seq), ch(l), l, h)
		h = write(u.pool[l], ch(l), l+1, skips[l])
	}
	h = write(conv(u.mid.seq), ch(depth), depth, h)
	for i := 0; i < depth; i++ {
		l := depth - 1 - i
		h = write(u.up[i], ch(l), l, h)
		h = write(conv(u.dec[i].seq), ch(l), l, h, skips[l])
	}
	for _, r := range u.refinement {
		if len(r.Params()) > 0 {
			h = write(r, u.Cfg.BaseFilters, 0, h)
		}
	}
	h = write(conv(u.head), u.Cfg.OutChannels, 0, h)
	recs[h].last = len(recs) // the output outlives the pass
	return recs
}

// place lays recs out greedy by size ("Efficient Memory Management for
// Deep Neural Net Inference", Pisarchyk and Lee, 2020): largest first,
// ties in step order, each at the lowest offset where it overlaps no
// placed record whose lifetime intersects its own. It returns the size
// of the layout.
func place(recs []record) int {
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return recs[order[a]].size > recs[order[b]].size })
	var placed []int // ascending offsets
	size := 0
	for _, i := range order {
		r := &recs[i]
		r.off = 0
		for _, j := range placed {
			q := &recs[j]
			if q.last < r.first || r.last < q.first {
				continue
			}
			if r.off+r.size <= q.off {
				break // every later record starts at q.off or above
			}
			r.off = max(r.off, q.off+q.size)
		}
		k := sort.Search(len(placed), func(k int) bool { return recs[placed[k]].off > r.off })
		placed = slices.Insert(placed, k, i)
		size = max(size, r.off+r.size)
	}
	return size
}

// plan (re)builds the arena's layout and sets every writer's output to
// its record's view.
func (u *UNet) plan() {
	a := u.arena
	a.recs = u.records()
	a.size = place(a.recs)
	a.views = a.views[:0]
	ones := []int{1, 1, 1, 1, 1}[:u.Cfg.Dim+2]
	for _, r := range a.recs {
		v := tensor.New(ones...)
		if r.layer != nil {
			nn.SetOutput(r.layer, v)
		}
		a.views = append(a.views, v)
	}
}

// frame re-points every record's view at its place in the arena for a
// batch of n inputs of the given extents, growing the arena if it is too
// small. The extents must be multiples of MinInputSize.
func (u *UNet) frame(n int, extents []int) {
	a := u.arena
	if a.recs == nil {
		u.plan()
	}
	// extents may be the input slot's own shape, which the loop re-points.
	var ext [3]int
	extents = ext[:copy(ext[:], extents)]
	unit := n
	for _, e := range extents {
		unit *= e
	}
	unit >>= u.Cfg.Dim * u.Cfg.Depth
	if need := a.size * unit; len(a.buf) < need {
		a.buf = make([]float64, need)
	}
	var dims [5]int
	shape := dims[:len(extents)+2]
	shape[0] = n
	for i, r := range a.recs {
		shape[1] = r.ch
		for k, e := range extents {
			shape[2+k] = e >> r.level
		}
		a.views[i].Reframe(a.buf[r.off*unit:(r.off+r.size)*unit], shape...)
	}
}

// holds reports whether s starts inside the arena's storage.
func (a *arena) holds(s []float64) bool {
	if len(s) == 0 || len(a.buf) == 0 {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(&s[0])), uintptr(unsafe.Pointer(&a.buf[0]))
	return p >= lo && p-lo < uintptr(len(a.buf))*unsafe.Sizeof(a.buf[0])
}
