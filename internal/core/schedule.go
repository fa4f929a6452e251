// Package core implements the paper's primary contribution: the
// multigrid-inspired training schedules for MGDiffNet (§3.1.2). A fully
// convolutional U-Net is trained through a hierarchy of input resolutions
// following the V, W, F or Half-V cycle of Figure 3: descents to coarser
// grids ("restriction" stages) train for a fixed number of epochs, ascents
// ("prolongation" stages) train until an early-stopping criterion fires,
// and the finest level is last. The same network weights are used at every
// level, which is what makes a fully convolutional architecture the natural
// multigrid citizen.
package core

import "fmt"

// Strategy selects a training schedule. It extends the solver cycle types
// with the non-multigrid baseline used throughout the paper's Table 1.
type Strategy int

// The training strategies compared in Table 1.
const (
	// Base trains directly at the finest resolution (the paper's baseline).
	Base Strategy = iota
	// V descends finest→coarsest with fixed-epoch stages, then ascends
	// with early-stopped stages.
	V
	// W follows the W-cycle level pattern (extra coarse-level visits).
	W
	// F follows the F-cycle pattern (re-descents during the ascent).
	F
	// HalfV skips all descent training and starts at the coarsest level.
	HalfV
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Base:
		return "Base"
	case V:
		return "V Cycle"
	case W:
		return "W Cycle"
	case F:
		return "F Cycle"
	case HalfV:
		return "Half-V Cycle"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Phase distinguishes how a stage's epoch budget is decided.
type Phase int

// Stage phases.
const (
	// Restriction stages run a fixed (small) number of epochs.
	Restriction Phase = iota
	// Prolongation stages run until early stopping declares convergence.
	Prolongation
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	if p == Restriction {
		return "restriction"
	}
	return "prolongation"
}

// Stage is one rung of a training schedule.
type Stage struct {
	// Level is 1-based; level 1 is the finest grid, level L the coarsest.
	Level int
	// Res is the nodal resolution trained at during this stage.
	Res int
	// Phase selects fixed-epoch (Restriction) or converge (Prolongation)
	// training.
	Phase Phase
}

// Schedule expands a strategy into its stage sequence for the given number
// of levels and finest resolution. Resolutions halve per level; finestRes
// must be divisible by 2^(levels−1), and every resolution must remain a
// multiple of the network's minimum input size (checked by the trainer).
func Schedule(s Strategy, levels, finestRes int) []Stage {
	if levels < 1 {
		panic("core: levels must be >= 1")
	}
	if finestRes%(1<<(levels-1)) != 0 {
		panic(fmt.Sprintf("core: finest resolution %d not divisible by 2^%d", finestRes, levels-1))
	}
	resAt := func(level int) int { return finestRes >> (level - 1) }
	mk := func(level int, ph Phase) Stage { return Stage{Level: level, Res: resAt(level), Phase: ph} }

	var seq []Stage
	switch s {
	case Base:
		seq = []Stage{mk(1, Prolongation)}
	case V:
		for l := 1; l < levels; l++ {
			seq = append(seq, mk(l, Restriction))
		}
		for l := levels; l >= 1; l-- {
			seq = append(seq, mk(l, Prolongation))
		}
	case HalfV:
		// "No smoothing before the coarsest grid layer": the descent is a
		// pure restriction of the inputs with no training stages.
		for l := levels; l >= 1; l-- {
			seq = append(seq, mk(l, Prolongation))
		}
	case W:
		seq = wSeq(1, levels, resAt)
	case F:
		seq = fSeq(1, levels, resAt)
	default:
		panic(fmt.Sprintf("core: unknown strategy %d", int(s)))
	}
	return dedupeAdjacent(seq)
}

// MultiCycleSchedule expands a strategy into cycles repetitions of its
// stage sequence (the several-cycle variation §3.1.2 mentions). Stages are
// merged across cycle boundaries with the same later-phase-wins rule
// dedupeAdjacent applies within a cycle: a V cycle ends with the finest
// prolongation and re-enters with a finest restriction, and that single
// visit must train once, as a restriction — emitting both would train the
// finest level twice back to back. Cycles <= 1, and the Base strategy
// (which has no hierarchy to re-enter), return the single-cycle schedule.
func MultiCycleSchedule(s Strategy, levels, finestRes, cycles int) []Stage {
	one := Schedule(s, levels, finestRes)
	if cycles <= 1 || s == Base {
		return one
	}
	seq := make([]Stage, 0, cycles*len(one))
	for c := 0; c < cycles; c++ {
		seq = append(seq, one...)
	}
	return dedupeAdjacent(seq)
}

// wSeq builds the classic W-cycle visitation: at each level, descend twice
// before the final ascent stage.
func wSeq(l, levels int, resAt func(int) int) []Stage {
	if l == levels {
		return []Stage{{Level: l, Res: resAt(l), Phase: Prolongation}}
	}
	var seq []Stage
	seq = append(seq, Stage{Level: l, Res: resAt(l), Phase: Restriction})
	seq = append(seq, wSeq(l+1, levels, resAt)...)
	seq = append(seq, wSeq(l+1, levels, resAt)...)
	seq = append(seq, Stage{Level: l, Res: resAt(l), Phase: Prolongation})
	return seq
}

// fSeq builds the F-cycle: a full descent followed, at each level of the
// ascent, by one V-shaped re-descent.
func fSeq(l, levels int, resAt func(int) int) []Stage {
	if l == levels {
		return []Stage{{Level: l, Res: resAt(l), Phase: Prolongation}}
	}
	var seq []Stage
	seq = append(seq, Stage{Level: l, Res: resAt(l), Phase: Restriction})
	seq = append(seq, fSeq(l+1, levels, resAt)...)
	seq = append(seq, vSeq(l+1, levels, resAt)...)
	seq = append(seq, Stage{Level: l, Res: resAt(l), Phase: Prolongation})
	return seq
}

// vSeq is a V-shaped sub-cycle starting (and ending) at level l.
func vSeq(l, levels int, resAt func(int) int) []Stage {
	if l == levels {
		return []Stage{{Level: l, Res: resAt(l), Phase: Prolongation}}
	}
	var seq []Stage
	seq = append(seq, Stage{Level: l, Res: resAt(l), Phase: Restriction})
	seq = append(seq, vSeq(l+1, levels, resAt)...)
	seq = append(seq, Stage{Level: l, Res: resAt(l), Phase: Prolongation})
	return seq
}

// dedupeAdjacent merges immediately repeated stages at the same level (the
// W and F recursions emit "arrive from below, then descend again" pairs at
// intermediate levels). The later stage's phase wins: a visit that is about
// to descend again is a Restriction stage, not a converge-trained one.
func dedupeAdjacent(seq []Stage) []Stage {
	out := seq[:0]
	for _, st := range seq {
		if len(out) > 0 && out[len(out)-1].Level == st.Level {
			out[len(out)-1] = st
			continue
		}
		out = append(out, st)
	}
	return out
}
