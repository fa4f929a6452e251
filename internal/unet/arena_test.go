package unet

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"mgdiffnet/internal/tensor"
)

// liveMax is the largest total size of the records live at one step.
func liveMax(recs []record) int {
	most := 0
	for t := 0; t <= len(recs); t++ {
		live := 0
		for _, r := range recs {
			if r.first <= t && t <= r.last {
				live += r.size
			}
		}
		most = max(most, live)
	}
	return most
}

// meets reports whether two records' lifetimes intersect.
func meets(a, b record) bool { return a.first <= b.last && b.first <= a.last }

// The arena plan at U-Net depth 1–3, in 2D and 3D, with none, one and two
// adaptations: no two records whose lifetimes intersect share storage,
// and the plan is no larger than the largest set of records live at one
// step, so greedy placement loses nothing on this topology. After a
// pass, every view sits at its record's offset in the arena.
func TestArenaPlanDisjointAndTight(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for depth := 1; depth <= 3; depth++ {
			for adapts := 0; adapts <= 2; adapts++ {
				t.Run(fmt.Sprintf("%dD/depth%d/adapt%d", dim, depth, adapts), func(t *testing.T) {
					cfg := DefaultConfig(dim)
					cfg.Depth, cfg.BaseFilters = depth, 2
					u := New(cfg).InferenceClone()
					for range adapts {
						u.Adapt()
					}
					res := 2 << depth
					shape := []int{2, 1, res, res, res}[:dim+2]
					u.Forward(randInput(rand.New(rand.NewSource(1)), shape...), false)
					a := u.arena
					recs := a.recs
					if want := 1 + 2*depth + 1 + 2*depth + 3*min(adapts, 1) + 2*max(adapts-1, 0) + 1; len(recs) != want {
						t.Fatalf("%d records, want %d", len(recs), want)
					}
					for i, r := range recs {
						for _, q := range recs[i+1:] {
							if meets(r, q) && r.off < q.off+q.size && q.off < r.off+r.size {
								t.Fatalf("records written at steps %d and %d are live together and share storage: [%d, %d) and [%d, %d)",
									r.first, q.first, r.off, r.off+r.size, q.off, q.off+q.size)
							}
						}
					}
					if live := liveMax(recs); a.size != live {
						t.Fatalf("plan holds %d units, the largest live set %d", a.size, live)
					}
					unit := a.views[0].Len() / recs[0].size // values per unit at this batch
					base := uintptr(unsafe.Pointer(&a.buf[0]))
					for i, v := range a.views {
						if at := int(uintptr(unsafe.Pointer(&v.Data[0]))-base) / 8; at != recs[i].off*unit || v.Len() != recs[i].size*unit {
							t.Fatalf("view %d starts at %d with %d values, want %d and %d", i, at, v.Len(), recs[i].off*unit, recs[i].size*unit)
						}
					}
				})
			}
		}
	}
}

// The bench 3D net (depth 2, 4 base filters, one input channel) peaks at
// its last decoder step: the full-resolution skip, the up-convolution's
// output and the decoder's output, four channels each — twelve input
// volumes, against one buffer per layer before.
func TestArenaPlanBench3DNet(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Depth, cfg.BaseFilters, cfg.BatchNorm = 2, 4, false
	u := New(cfg).InferenceClone()
	u.plan()
	if in := u.arena.recs[0].size; u.arena.size != 12*in {
		t.Fatalf("plan holds %d units, want 12 input volumes of %d", u.arena.size, in)
	}
}

// An inference clone answers batches of 8, 1, 3 and 8 in turn, in 2D at
// 48² and in 3D at 16³, through its input slot and from a tensor of the
// caller's, before and after adaptations, exactly as a fresh network
// without buffer reuse does: only where the values are stored changes.
func TestInferenceCloneBitExact(t *testing.T) {
	for _, tc := range []struct{ dim, res int }{{2, 48}, {3, 16}} {
		t.Run(fmt.Sprintf("%dD", tc.dim), func(t *testing.T) {
			cfg := DefaultConfig(tc.dim)
			cfg.BaseFilters, cfg.Depth = 4, 2
			ic := New(cfg).InferenceClone()
			rng := rand.New(rand.NewSource(int64(tc.dim)))
			for adapts := 0; adapts <= 2; adapts++ {
				if adapts > 0 {
					ic.Adapt()
				}
				ref := ic.Clone()
				for _, n := range []int{8, 1, 3, 8} {
					x := randInput(rng, []int{n, 1, tc.res, tc.res, tc.res}[:tc.dim+2]...)
					want := ref.Forward(x, false)
					same := func(how string, y *tensor.Tensor) {
						t.Helper()
						if !y.SameShape(want) {
							t.Fatalf("adapt %d batch %d %s: shape %v, want %v", adapts, n, how, y.Shape(), want.Shape())
						}
						for i, v := range want.Data {
							if math.Float64bits(y.Data[i]) != math.Float64bits(v) {
								t.Fatalf("adapt %d batch %d %s: element %d is %v, fresh network %v", adapts, n, how, i, y.Data[i], v)
							}
						}
					}
					same("from the caller's tensor", ic.Forward(x, false))
					in := ic.Input(x.Shape()...)
					copy(in.Data, x.Data)
					same("through the input slot", ic.Forward(in, false))
				}
			}
		})
	}
}

// mustPanic runs f and returns its panic message, failing if it returns.
func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() { msg = fmt.Sprint(recover()) }()
	f()
	t.Fatal("no panic")
	return ""
}

// An inference clone refuses to train: its activations share one arena
// and it keeps nothing for Backward. It also refuses an input inside its
// arena other than the input slot, such as its last output, which the
// pass would overwrite while reading it; and only an inference clone has
// an input slot.
func TestInferenceCloneRefusesMisuse(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.BaseFilters, cfg.Depth = 2, 2
	u := New(cfg)
	ic := u.InferenceClone()
	x := randInput(rand.New(rand.NewSource(3)), 1, 1, 16, 16)
	if msg := mustPanic(t, func() { ic.Forward(x, true) }); !strings.Contains(msg, "inference clone") {
		t.Fatalf("train forward panicked with %q", msg)
	}
	y := ic.Forward(x, false)
	if msg := mustPanic(t, func() { ic.Forward(y, false) }); !strings.Contains(msg, "arena") {
		t.Fatalf("forward of its own output panicked with %q", msg)
	}
	if msg := mustPanic(t, func() { u.Input(1, 1, 16, 16) }); !strings.Contains(msg, "inference clone") {
		t.Fatalf("Input on a plain net panicked with %q", msg)
	}
	if msg := mustPanic(t, func() { ic.Input(1, 1, 15, 16) }); !strings.Contains(msg, "multiple") {
		t.Fatalf("Input of a bad extent panicked with %q", msg)
	}
}
