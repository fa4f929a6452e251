package dist

import (
	"fmt"

	"mgdiffnet/internal/nn"
	"mgdiffnet/internal/unet"
)

// defaultBucketElems is the gradient-bucket granularity (float64 elements)
// when ParallelConfig.BucketElems is zero: 8192 elements = 64 KiB, a few
// buckets for the paper's networks — small enough that the first bucket's
// allreduce starts while most of backward is still ahead, large enough
// that per-bucket collective latency amortizes.
const defaultBucketElems = 8192

// bucketPlan fixes the comm/compute overlap schedule for one arena
// layout: the gradient slab is cut at fixed element boundaries into
// buckets, and each bucket's ring reduction starts as soon as backward has
// produced its final gradients. The arena lays the parameters out in
// unet.Params order, the exact reverse of the backward groups, so backward
// finalizes the slab from the top down and the final buckets are always a
// suffix of it: they are released top-down. Both fields are derived
// deterministically from the network structure and the bucket size, so
// every replica computes the identical plan — which is what keeps the
// per-batch collective sequence identical across ranks (including ranks
// that skipped backward because their shard was empty; they release every
// bucket in the same top-down order).
type bucketPlan struct {
	// bounds holds the nb+1 slab offsets of the fixed bucket boundaries.
	bounds []int
	// ready[g] is how many buckets, counted from the top of the slab, are
	// final once backward group g has fired.
	ready []int
}

// newBucketPlan builds the plan for a network whose parameters live in ar.
// bucketElems fixes the bucket boundaries; the last bucket is shorter when
// the slab length is not a multiple. It fails unless the backward groups,
// in firing order, tile the slab from its top down to offset 0.
func newBucketPlan(net *unet.UNet, ar *nn.Arena, bucketElems int) (*bucketPlan, error) {
	if bucketElems <= 0 {
		bucketElems = defaultBucketElems
	}
	n := ar.Len()
	if n == 0 {
		return nil, fmt.Errorf("dist: bucket plan over an empty arena")
	}
	nb := (n + bucketElems - 1) / bucketElems
	p := &bucketPlan{bounds: make([]int, nb+1)}
	for b := 0; b < nb; b++ {
		p.bounds[b+1] = min((b+1)*bucketElems, n)
	}

	groups := net.BackwardParamGroups()
	p.ready = make([]int, len(groups))
	top := n // the groups walked so far finalize [top, n)
	for g, ps := range groups {
		gLo, gHi, size := n, 0, 0
		for _, pr := range ps {
			lo, hi, ok := ar.Span(pr)
			if !ok {
				return nil, fmt.Errorf("dist: parameter %q of backward group %d not covered by the arena", pr.Name, g)
			}
			size += hi - lo
			gLo = min(gLo, lo)
			gHi = max(gHi, hi)
		}
		if gHi != top || gHi-gLo != size {
			return nil, fmt.Errorf("dist: backward group %d spans [%d, %d) of the gradient slab, want a contiguous span ending at %d",
				g, gLo, gHi, top)
		}
		top = gLo
		p.ready[g] = nb - (top+bucketElems-1)/bucketElems
	}
	if top != 0 {
		return nil, fmt.Errorf("dist: backward groups cover [%d, %d) of the %d-element gradient slab", top, n, n)
	}
	return p, nil
}

// numBuckets returns the bucket count.
func (p *bucketPlan) numBuckets() int { return len(p.bounds) - 1 }
