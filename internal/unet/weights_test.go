package unet

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// paramHash is the FNV-64a hash of every parameter of u in Params order:
// its name, its shape and the IEEE bit patterns of its values.
func paramHash(u *UNet) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, p := range u.Params() {
		h.Write([]byte(p.Name))
		for _, d := range p.Data.Shape() {
			put(uint64(d))
		}
		for _, v := range p.Data.Data {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// TestInitialWeightsPinned pins the initial weights of the seeded 2D and
// 3D networks, before and after one Adapt. The hashes were recorded from
// the rank-named convolution types (Conv2D, Conv3D, ConvTranspose2D,
// ConvTranspose3D) that nn.Conv and nn.ConvTranspose replaced, so they
// hold the one weight-allocation path to those types' shapes, He fan-ins
// and order of draws.
func TestInitialWeightsPinned(t *testing.T) {
	for _, tc := range []struct {
		dim            int
		fresh, adapted uint64
	}{
		{2, 0x7f580c974196cc6a, 0x8d96b896fbd0e871},
		{3, 0xc585ba007e418e7d, 0x8f1d0a4fba21407d},
	} {
		t.Run(fmt.Sprintf("%dD", tc.dim), func(t *testing.T) {
			u := New(DefaultConfig(tc.dim))
			if got := paramHash(u); got != tc.fresh {
				t.Errorf("fresh network hash %#x, want %#x", got, tc.fresh)
			}
			u.Adapt()
			if got := paramHash(u); got != tc.adapted {
				t.Errorf("adapted network hash %#x, want %#x", got, tc.adapted)
			}
		})
	}
}
