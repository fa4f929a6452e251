package core

import (
	"fmt"
	"math"
	"testing"

	"mgdiffnet/internal/fem"
	"mgdiffnet/internal/field"
	"mgdiffnet/internal/tensor"
)

var allStrategies = []Strategy{Base, V, W, F, HalfV}

// TestScheduleInvariants holds every strategy, at every depth up to the
// paper's four levels, to the rules the runner relies on: stage resolutions
// halve per level, the level moves by one per stage, a restriction stage
// is always followed by a descent and a prolongation stage by an ascent,
// the coarsest level is only ever converge-trained, and the schedule ends
// converge-training the finest grid. One level collapses every strategy to
// the Base schedule.
func TestScheduleInvariants(t *testing.T) {
	const finest = 64
	for _, s := range allStrategies {
		for levels := 1; levels <= 4; levels++ {
			t.Run(fmt.Sprintf("%s/levels%d", s, levels), func(t *testing.T) {
				seq := Schedule(s, levels, finest)
				if len(seq) == 0 {
					t.Fatal("empty schedule")
				}
				last := seq[len(seq)-1]
				if last.Level != 1 || last.Res != finest || last.Phase != Prolongation {
					t.Fatalf("must end converge-training the finest grid, got %+v", last)
				}
				if s == Base || levels == 1 {
					if len(seq) != 1 {
						t.Fatalf("want the single Base stage, got %v", levelsOf(seq))
					}
					return
				}
				coarsestVisits := 0
				for i, st := range seq {
					if st.Level < 1 || st.Level > levels || st.Res != finest>>(st.Level-1) {
						t.Fatalf("stage %d: level %d res %d", i, st.Level, st.Res)
					}
					if st.Level == levels {
						coarsestVisits++
						if st.Phase != Prolongation {
							t.Fatalf("stage %d: the coarsest level has nothing to descend to, got %v", i, st.Phase)
						}
					}
					if s == HalfV && st.Phase == Restriction {
						t.Fatalf("stage %d: Half-V trains no descent stage", i)
					}
					if i == len(seq)-1 {
						continue
					}
					step := seq[i+1].Level - st.Level
					want := -1 // a prolongation stage hands over to the next finer level
					if st.Phase == Restriction {
						want = 1
					}
					if step != want {
						t.Fatalf("stage %d (%v at level %d) moves %+d levels, want %+d: %v",
							i, st.Phase, st.Level, step, want, levelsOf(seq))
					}
				}
				if coarsestVisits == 0 {
					t.Fatalf("coarsest level %d never trained: %v", levels, levelsOf(seq))
				}
				if s == HalfV && seq[0].Level != levels {
					t.Fatalf("Half-V must start at the coarsest level: %v", levelsOf(seq))
				}
				if s != HalfV && seq[0].Level != 1 {
					t.Fatalf("%v must start at the finest level: %v", s, levelsOf(seq))
				}
			})
		}
	}
}

// TestMultiCycleScheduleLength checks how MultiCycleSchedule joins cycles:
// V, W and F end and begin at the finest level, so each boundary merges two
// stages into one restriction, and the finest level is converge-trained
// only at the very end; Half-V ends at the finest and restarts at the
// coarsest level, so its cycles concatenate unmerged.
func TestMultiCycleScheduleLength(t *testing.T) {
	const levels, finest = 3, 32
	for _, s := range []Strategy{V, W, F, HalfV} {
		for _, cycles := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/cycles%d", s, cycles), func(t *testing.T) {
				one := Schedule(s, levels, finest)
				seq := MultiCycleSchedule(s, levels, finest, cycles)
				want, finestConverge := cycles*len(one)-(cycles-1), 1
				if s == HalfV {
					want, finestConverge = cycles*len(one), cycles
				}
				if len(seq) != want {
					t.Fatalf("%d stages, want %d: %v", len(seq), want, levelsOf(seq))
				}
				n := 0
				for _, st := range seq {
					if st.Level == 1 && st.Phase == Prolongation {
						n++
					}
				}
				if n != finestConverge {
					t.Fatalf("finest level converge-trained %d times, want %d: %+v", n, finestConverge, seq)
				}
			})
		}
	}
}

// TestRunReportFollowsSchedule trains every strategy on a small problem and
// checks that the report records exactly the schedule it ran: one stage
// report per stage, a fixed epoch budget on restriction stages, an
// early-stopped one on prolongation stages, one history record per epoch
// at its stage's resolution, and per-level times (Figure 7) that add up to
// the stage times.
func TestRunReportFollowsSchedule(t *testing.T) {
	for _, s := range allStrategies {
		t.Run(s.String(), func(t *testing.T) {
			cfg := tinyConfig(2)
			cfg.Strategy = s
			cfg.Levels = 3
			cfg.FinestRes = 32
			cfg.RestrictionEpochs = 2
			rep := NewTrainer(cfg).Run()
			sched := Schedule(s, cfg.Levels, cfg.FinestRes)
			if rep.Strategy != s || len(rep.Stages) != len(sched) {
				t.Fatalf("report of %v with %d stages, want %v with %d", rep.Strategy, len(rep.Stages), s, len(sched))
			}
			epochs, seconds := 0, 0.0
			for i, sr := range rep.Stages {
				if sr.Stage != sched[i] {
					t.Fatalf("stage %d ran %+v, schedule says %+v", i, sr.Stage, sched[i])
				}
				if sr.Stage.Phase == Restriction && sr.Epochs != cfg.RestrictionEpochs ||
					sr.Stage.Phase == Prolongation && (sr.Epochs < 1 || sr.Epochs > cfg.MaxEpochsPerStage) {
					t.Fatalf("stage %d (%v) trained %d epochs", i, sr.Stage.Phase, sr.Epochs)
				}
				for _, h := range rep.History[epochs : epochs+sr.Epochs] {
					if h.Stage != i || h.Res != sr.Stage.Res {
						t.Fatalf("history record %+v inside stage %d at res %d", h, i, sr.Stage.Res)
					}
				}
				epochs += sr.Epochs
				if last := rep.History[epochs-1].Loss; sr.FinalLoss != last {
					t.Fatalf("stage %d final loss %v, last epoch %v", i, sr.FinalLoss, last)
				}
				seconds += sr.Seconds
			}
			if len(rep.History) != epochs {
				t.Fatalf("%d history records for %d epochs", len(rep.History), epochs)
			}
			if rep.FinalLoss != rep.Stages[len(rep.Stages)-1].FinalLoss || math.IsNaN(rep.FinalLoss) {
				t.Fatalf("final loss %v", rep.FinalLoss)
			}
			perLevel, byLevel := 0.0, rep.TimePerLevel()
			for l := 1; l <= cfg.Levels; l++ {
				perLevel += byLevel[l]
			}
			if len(byLevel) > cfg.Levels {
				t.Fatalf("time recorded for levels %v", byLevel)
			}
			if math.Abs(perLevel-seconds) > 1e-9*max(1, seconds) || seconds > rep.TotalSeconds {
				t.Fatalf("per-level time %v, stage time %v, total %v", perLevel, seconds, rep.TotalSeconds)
			}
		})
	}
}

// TestTrainedEnergyNotBelowFEMOptimum holds a trained network to Tables 3
// and 5's comparison on an ω outside the training set: the prediction is a
// field in [0, 1] carrying the FEM problem's Dirichlet values, so its
// energy can come no lower than that of the FEM solution, which minimizes
// the same functional; and training must have brought it closer to that
// optimum than the untrained network was.
func TestTrainedEnergyNotBelowFEMOptimum(t *testing.T) {
	w := field.Omega{0.5, -1, 0.75, 0.25}
	for _, dim := range []int{2, 3} {
		t.Run(fmt.Sprintf("%dD", dim), func(t *testing.T) {
			cfg := tinyConfig(dim)
			res := cfg.FinestRes
			nuField := field.Raster(w, dim, res)
			shape := append([]int{1, 1}, field.Shape(dim, res)...)
			uFEM, cg := fem.Solve(nuField, 1e-10, 5000)
			if !cg.Converged {
				t.Fatalf("FEM reference did not converge: %+v", cg)
			}
			nu := tensor.FromSlice(nuField.Data, shape...)
			energy := func(u *tensor.Tensor) float64 {
				j, _ := fem.NewEnergyLoss(dim).Eval(tensor.FromSlice(u.Data, shape...), nu)
				return j
			}
			tr := NewTrainer(cfg)
			before := energy(tr.Predict(w, res))
			tr.Run()
			pred := tr.Predict(w, res)
			for i, v := range pred.Data {
				if !(v >= 0 && v <= 1) {
					t.Fatalf("prediction %v at %d outside [0, 1]", v, i)
				}
			}
			opt, after := energy(uFEM), energy(pred)
			if after < opt-1e-9*math.Abs(opt) {
				t.Fatalf("network energy %v below the FEM optimum %v", after, opt)
			}
			if !(after-opt < before-opt) {
				t.Fatalf("training did not approach the FEM optimum %v: energy %v before, %v after", opt, before, after)
			}
		})
	}
}
