package nn

import (
	"math"
	"testing"
)

func arenaTestParams() []*Param {
	ps := []*Param{
		NewParam("a", 3, 4),
		NewParam("b", 5),
		NewParam("c", 2, 2, 2),
	}
	for i, p := range ps {
		for j := range p.Data.Data {
			p.Data.Data[j] = float64(i+1) + 0.01*float64(j)
			p.Grad.Data[j] = -float64(i+1) - 0.1*float64(j)
		}
	}
	return ps
}

func TestArenaRebacksParamsPreservingValues(t *testing.T) {
	ps := arenaTestParams()
	wantData := make([][]float64, len(ps))
	for i, p := range ps {
		wantData[i] = append([]float64(nil), p.Data.Data...)
	}
	a := NewArena(ps)
	if a.Len() != 12+5+8 {
		t.Fatalf("arena length %d, want 25", a.Len())
	}
	off := 0
	for i, p := range ps {
		for j, v := range wantData[i] {
			if p.Data.Data[j] != v {
				t.Fatalf("param %d value %d changed during re-backing", i, j)
			}
		}
		// The tensor must be a live view into the slab: writes through the
		// slab show up in the parameter and vice versa.
		a.Data()[off] = 42
		if p.Data.At(make([]int, p.Data.Rank())...) != 42 {
			t.Fatalf("param %d Data is not a view into the arena slab", i)
		}
		p.Grad.Data[0] = 7
		if a.Grad()[off] != 7 {
			t.Fatalf("param %d Grad is not a view into the arena slab", i)
		}
		lo, hi, ok := a.Span(p)
		if !ok || lo != off || hi != off+p.NumElements() {
			t.Fatalf("param %d span (%d,%d,%v), want (%d,%d,true)", i, lo, hi, ok, off, off+p.NumElements())
		}
		off += p.NumElements()
	}
	a.ZeroGrad()
	for i, p := range ps {
		for j, g := range p.Grad.Data {
			if g != 0 {
				t.Fatalf("param %d grad %d not zeroed by arena memset", i, j)
			}
		}
	}
}

func TestArenaRejectsDuplicates(t *testing.T) {
	p := NewParam("x", 2)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate parameter must panic")
		}
	}()
	NewArena([]*Param{p, p})
}

// The fused flat Adam sweep must be bit-identical to the per-parameter
// fallback, including after mid-training ExtendParams (different
// bias-correction ages force multiple fused runs).
func TestFusedAdamBitIdenticalToPerParam(t *testing.T) {
	build := func() ([]*Param, []*Param) {
		a := arenaTestParams()
		b := arenaTestParams()
		return a, b
	}
	flat, ref := build()
	NewArena(flat) // flat side: arena-backed → fused step
	optF := NewAdam(flat, 1e-2)
	optR := NewAdam(ref, 1e-2)

	setGrads := func(ps []*Param, step int) {
		for i, p := range ps {
			for j := range p.Grad.Data {
				p.Grad.Data[j] = math.Sin(float64(i*31+j) + float64(step)*0.7)
			}
		}
	}
	check := func(step int) {
		t.Helper()
		for i := range flat {
			for j := range flat[i].Data.Data {
				if flat[i].Data.Data[j] != ref[i].Data.Data[j] {
					t.Fatalf("step %d param %d elem %d: fused %g vs per-param %g — must be bit-identical",
						step, i, j, flat[i].Data.Data[j], ref[i].Data.Data[j])
				}
			}
		}
	}
	for s := 0; s < 3; s++ {
		setGrads(flat, s)
		setGrads(ref, s)
		optF.Step()
		optR.Step()
		check(s)
	}
	// Mid-training extension: fresh parameters have a younger correction
	// clock, so the fused sweep must split at the age boundary.
	extF := NewParam("e", 6)
	extR := NewParam("e", 6)
	for j := range extF.Data.Data {
		extF.Data.Data[j] = 0.3 * float64(j)
		extR.Data.Data[j] = 0.3 * float64(j)
	}
	flat = append(flat, extF)
	ref = append(ref, extR)
	NewArena(flat) // re-back old and fresh together, as Trainer.Adapt does
	optF.ExtendParams([]*Param{extF})
	optR.ExtendParams([]*Param{extR})
	for s := 3; s < 6; s++ {
		setGrads(flat, s)
		setGrads(ref, s)
		optF.Step()
		optR.Step()
		check(s)
	}
}

// Round-tripping the optimizer state through ExportStateFor/NewAdamFromState
// must reproduce the exact trajectory when the parameters are arena-backed.
func TestAdamStateRoundTripWithArena(t *testing.T) {
	ps := arenaTestParams()
	NewArena(ps)
	opt := NewAdam(ps, 5e-3)
	for s := 0; s < 4; s++ {
		for i, p := range ps {
			for j := range p.Grad.Data {
				p.Grad.Data[j] = math.Cos(float64(i+j) + float64(s))
			}
		}
		opt.Step()
	}
	st, err := opt.ExportStateFor(ps)
	if err != nil {
		t.Fatal(err)
	}
	// Clone parameters (fresh arena) and restore.
	clone := make([]*Param, len(ps))
	for i, p := range ps {
		clone[i] = NewParam(p.Name, p.Data.Shape()...)
		copy(clone[i].Data.Data, p.Data.Data)
	}
	NewArena(clone)
	opt2, err := NewAdamFromState(clone, 5e-3, st)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		for i := range ps {
			for j := range ps[i].Grad.Data {
				g := math.Sin(float64(i*7+j) - float64(s))
				ps[i].Grad.Data[j] = g
				clone[i].Grad.Data[j] = g
			}
		}
		opt.Step()
		opt2.Step()
		for i := range ps {
			for j := range ps[i].Data.Data {
				if ps[i].Data.Data[j] != clone[i].Data.Data[j] {
					t.Fatalf("restored trajectory diverged at step %d param %d elem %d", s, i, j)
				}
			}
		}
	}
}
