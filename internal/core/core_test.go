package core

import (
	"fmt"
	"math"
	"testing"

	"mgdiffnet/internal/field"
	"mgdiffnet/internal/tensor"
	"mgdiffnet/internal/unet"
)

func levelsOf(seq []Stage) []int {
	out := make([]int, len(seq))
	for i, s := range seq {
		out[i] = s.Level
	}
	return out
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestScheduleBase(t *testing.T) {
	seq := Schedule(Base, 4, 64)
	if len(seq) != 1 || seq[0].Level != 1 || seq[0].Res != 64 || seq[0].Phase != Prolongation {
		t.Fatalf("base schedule %+v", seq)
	}
}

func TestScheduleV(t *testing.T) {
	seq := Schedule(V, 4, 64)
	want := []int{1, 2, 3, 4, 3, 2, 1}
	if !eqInts(levelsOf(seq), want) {
		t.Fatalf("V levels %v want %v", levelsOf(seq), want)
	}
	// Descent stages are restrictions, ascent stages prolongations.
	for i, s := range seq {
		wantPhase := Prolongation
		if i < 3 {
			wantPhase = Restriction
		}
		if s.Phase != wantPhase {
			t.Fatalf("stage %d phase %v", i, s.Phase)
		}
	}
	// Resolutions halve per level.
	if seq[0].Res != 64 || seq[3].Res != 8 || seq[6].Res != 64 {
		t.Fatalf("V resolutions wrong: %+v", seq)
	}
}

func TestScheduleHalfV(t *testing.T) {
	seq := Schedule(HalfV, 4, 64)
	want := []int{4, 3, 2, 1}
	if !eqInts(levelsOf(seq), want) {
		t.Fatalf("HalfV levels %v want %v", levelsOf(seq), want)
	}
	for _, s := range seq {
		if s.Phase != Prolongation {
			t.Fatal("HalfV must contain only prolongation stages")
		}
	}
}

func TestScheduleWVisitsCoarseMoreOften(t *testing.T) {
	vSeq := Schedule(V, 3, 32)
	wSeq := Schedule(W, 3, 32)
	count := func(seq []Stage, level int) int {
		n := 0
		for _, s := range seq {
			if s.Level == level {
				n++
			}
		}
		return n
	}
	if count(wSeq, 3) <= count(vSeq, 3) {
		t.Fatalf("W must visit the coarsest level more often: W %d vs V %d", count(wSeq, 3), count(vSeq, 3))
	}
	// W starts at the finest and ends at the finest.
	if wSeq[0].Level != 1 || wSeq[len(wSeq)-1].Level != 1 {
		t.Fatalf("W endpoints: %v", levelsOf(wSeq))
	}
}

// TestScheduleFBetweenVAndW also holds Table 1's claim that Half-V is the
// cheapest schedule: a stage's cost scales with its voxel count res^dim,
// and Σ res^dim over the stages must order Half-V < V ≤ F ≤ W at every
// depth, strictly V < F < W from four levels on (at two levels V, F and W
// are one schedule; at three, F and W are).
func TestScheduleFBetweenVAndW(t *testing.T) {
	vN := len(Schedule(V, 4, 64))
	fN := len(Schedule(F, 4, 64))
	wN := len(Schedule(W, 4, 64))
	if !(vN < fN && fN < wN) {
		t.Fatalf("stage counts must order V < F < W, got %d, %d, %d", vN, fN, wN)
	}
	for _, dim := range []int{2, 3} {
		for levels := 2; levels <= 4; levels++ {
			var cost [4]int
			for i, s := range []Strategy{HalfV, V, F, W} {
				for _, st := range Schedule(s, levels, 64) {
					c := 1
					for range dim {
						c *= st.Res
					}
					cost[i] += c
				}
			}
			h, v, f, w := cost[0], cost[1], cost[2], cost[3]
			if !(h < v && v <= f && f <= w) || levels >= 4 && !(v < f && f < w) {
				t.Fatalf("dim %d, %d levels: voxel cost must order Half-V < V <= F <= W (strict from 4 levels), got %d, %d, %d, %d",
					dim, levels, h, v, f, w)
			}
		}
	}
}

func TestScheduleLevelMovesAreUnitSteps(t *testing.T) {
	for _, s := range []Strategy{V, W, F} {
		seq := Schedule(s, 4, 64)
		for i := 1; i < len(seq); i++ {
			d := seq[i].Level - seq[i-1].Level
			if d != 1 && d != -1 {
				t.Fatalf("%v: non-unit level move at %d: %v", s, i, levelsOf(seq))
			}
		}
	}
}

func TestScheduleBadInputsPanic(t *testing.T) {
	for name, f := range map[string]func(){
		"levels":    func() { Schedule(V, 0, 64) },
		"divisible": func() { Schedule(V, 4, 60) },
		"strategy":  func() { Schedule(Strategy(42), 2, 16) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestStrategyStrings(t *testing.T) {
	for s, want := range map[Strategy]string{
		Base: "Base", V: "V Cycle", W: "W Cycle", F: "F Cycle", HalfV: "Half-V Cycle",
	} {
		if s.String() != want {
			t.Fatalf("%d -> %q want %q", int(s), s.String(), want)
		}
	}
}

func TestEarlyStopper(t *testing.T) {
	e := NewEarlyStopper(2, 1e-3)
	losses := []float64{1.0, 0.5, 0.499, 0.4995}
	want := []bool{false, false, false, true}
	for i, l := range losses {
		if got := e.Observe(l); got != want[i] {
			t.Fatalf("step %d: Observe(%v)=%v want %v", i, l, got, want[i])
		}
	}
	if e.best != 0.5 {
		t.Fatalf("best %v", e.best)
	}
}

// The first observed loss only sets the baseline, whatever its value; with
// patience 1 the next non-improving epoch stops, and an improvement by
// exactly MinDelta does not count.
func TestEarlyStopperFirstObservationNeverStops(t *testing.T) {
	e := NewEarlyStopper(1, 0.25)
	for i, step := range []struct {
		loss float64
		stop bool
	}{{100, false}, {99.5, false}, {99.75, true}, {99.25, true}, {99.24, false}} {
		if got := e.Observe(step.loss); got != step.stop {
			t.Fatalf("step %d: Observe(%v)=%v want %v", i, step.loss, got, step.stop)
		}
	}
}

func TestEarlyStopperPanicsOnBadPatience(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEarlyStopper(0, 0)
}

func tinyConfig(dim int) Config {
	cfg := DefaultConfig(dim)
	cfg.FinestRes = 16
	cfg.Levels = 2
	cfg.Samples = 4
	cfg.BatchSize = 2
	cfg.RestrictionEpochs = 1
	cfg.MaxEpochsPerStage = 3
	cfg.Patience = 2
	net := unet.DefaultConfig(dim)
	net.BaseFilters = 4
	cfg.Net = &net
	if dim == 3 {
		cfg.FinestRes = 16
		cfg.Samples = 2
		cfg.BatchSize = 1
		cfg.MaxEpochsPerStage = 2
	}
	return cfg
}

func TestTrainerRunHalfV2D(t *testing.T) {
	cfg := tinyConfig(2)
	tr := NewTrainer(cfg)
	rep := tr.Run()
	if len(rep.Stages) != 2 { // HalfV with 2 levels: coarse, fine
		t.Fatalf("stages %d want 2", len(rep.Stages))
	}
	if rep.Stages[0].Stage.Res != 8 || rep.Stages[1].Stage.Res != 16 {
		t.Fatalf("stage resolutions %+v", rep.Stages)
	}
	if rep.FinalLoss <= 0 || math.IsNaN(rep.FinalLoss) {
		t.Fatalf("final loss %v", rep.FinalLoss)
	}
	if len(rep.History) == 0 {
		t.Fatal("history empty")
	}
	if rep.TotalSeconds <= 0 {
		t.Fatal("no time recorded")
	}
}

func TestTrainerLossDecreasesOverEpochs(t *testing.T) {
	cfg := tinyConfig(2)
	cfg.Strategy = Base
	cfg.MaxEpochsPerStage = 8
	cfg.Patience = 8
	tr := NewTrainer(cfg)
	rep := tr.Run()
	first := rep.History[0].Loss
	last := rep.History[len(rep.History)-1].Loss
	if !(last < first) {
		t.Fatalf("training loss did not decrease: %v -> %v", first, last)
	}
}

func TestTrainerVSchedulePhases(t *testing.T) {
	cfg := tinyConfig(2)
	cfg.Strategy = V
	tr := NewTrainer(cfg)
	rep := tr.Run()
	// V with 2 levels: (1, restriction), (2, prolongation), (1, prolongation).
	if len(rep.Stages) != 3 {
		t.Fatalf("V stages %d", len(rep.Stages))
	}
	if rep.Stages[0].Epochs != cfg.RestrictionEpochs {
		t.Fatalf("restriction stage trained %d epochs want %d", rep.Stages[0].Epochs, cfg.RestrictionEpochs)
	}
	if rep.Stages[1].Epochs > cfg.MaxEpochsPerStage {
		t.Fatal("prolongation exceeded cap")
	}
}

func TestTrainerAdaptation(t *testing.T) {
	cfg := tinyConfig(2)
	cfg.Strategy = HalfV
	cfg.Adapt = true
	tr := NewTrainer(cfg)
	before := tr.Net.ParamCount()
	rep := tr.Run()
	if tr.Net.ParamCount() <= before {
		t.Fatal("adaptation did not add parameters")
	}
	// The move coarse→fine is stage 1; it must be flagged.
	if !rep.Stages[1].Adapted {
		t.Fatalf("stage 1 not adapted: %+v", rep.Stages)
	}
	if rep.Stages[0].Adapted {
		t.Fatal("first stage cannot be adapted")
	}
}

func TestTrainerPredictShapeAndBC(t *testing.T) {
	cfg := tinyConfig(2)
	tr := NewTrainer(cfg)
	tr.Run()
	w := field.Omega{0.3105, 1.5386, 0.0932, -1.2442}
	u := tr.Predict(w, 16)
	if u.Rank() != 2 || u.Dim(0) != 16 {
		t.Fatalf("prediction shape %v", u.Shape())
	}
	for iy := 0; iy < 16; iy++ {
		if u.At(iy, 0) != 1 || u.At(iy, 15) != 0 {
			t.Fatal("prediction violates Dirichlet BC")
		}
	}
	// Fully convolutional: the same trained weights evaluate at a finer
	// resolution (natural prolongation).
	u32 := tr.Predict(w, 32)
	if u32.Dim(0) != 32 {
		t.Fatalf("prolonged prediction shape %v", u32.Shape())
	}
}

// PredictField on a rasterized batch must give, sample by sample, what
// Predict gives for each ω.
func TestPredictFieldMatchesPredict(t *testing.T) {
	tr := NewTrainer(tinyConfig(2))
	const res = 16
	ws := []field.Omega{{0.3105, 1.5386, 0.0932, -1.2442}, {-2.1, 0.4, 1.7, 2.9}}
	nu := tensor.New(len(ws), 1, res, res)
	for i, w := range ws {
		copy(nu.Data[i*res*res:], field.Raster(w, 2, res).Data)
	}
	batch := tr.PredictField(nu)
	if !batch.SameShape(nu) {
		t.Fatalf("PredictField shape %v want %v", batch.Shape(), nu.Shape())
	}
	for i, w := range ws {
		one := tr.Predict(w, res)
		for j, v := range one.Data {
			if got := batch.Data[i*res*res+j]; math.Abs(got-v) > 1e-12 {
				t.Fatalf("sample %d node %d: PredictField %v, Predict %v", i, j, got, v)
			}
		}
	}
}

func TestTrainerRun3D(t *testing.T) {
	cfg := tinyConfig(3)
	tr := NewTrainer(cfg)
	rep := tr.Run()
	if rep.FinalLoss <= 0 || math.IsNaN(rep.FinalLoss) {
		t.Fatalf("3D final loss %v", rep.FinalLoss)
	}
	w := field.Omega{0.5, -0.5, 1, -1}
	u := tr.Predict(w, 8)
	if u.Rank() != 3 {
		t.Fatalf("3D prediction rank %d", u.Rank())
	}
}

func TestTrainerDeterministic(t *testing.T) {
	cfg := tinyConfig(2)
	cfg.MaxEpochsPerStage = 2
	a := NewTrainer(cfg).Run()
	b := NewTrainer(cfg).Run()
	if a.FinalLoss != b.FinalLoss {
		t.Fatalf("non-deterministic training: %v vs %v", a.FinalLoss, b.FinalLoss)
	}
}

func TestTimePerLevel(t *testing.T) {
	rep := &Report{Stages: []StageReport{
		{Stage: Stage{Level: 1}, Seconds: 2},
		{Stage: Stage{Level: 2}, Seconds: 1},
		{Stage: Stage{Level: 1}, Seconds: 3},
	}}
	tl := rep.TimePerLevel()
	if tl[1] != 5 || tl[2] != 1 {
		t.Fatalf("TimePerLevel %v", tl)
	}
}

func TestRestrictInputHalvesResolution(t *testing.T) {
	w := field.Omega{1, -1, 0.5, -0.5}
	fine := tensor.New(1, 1, 16, 16)
	copy(fine.Data, field.Raster(w, 2, 16).Data)
	coarse := RestrictInput(fine)
	if coarse.Dim(2) != 8 {
		t.Fatalf("restricted shape %v", coarse.Shape())
	}
	// Restriction approximates rasterizing at the coarse grid: the two
	// fields must be close (same smooth function, different sampling).
	direct := tensor.New(1, 1, 8, 8)
	copy(direct.Data, field.Raster(w, 2, 8).Data)
	if d := coarse.RMSE(direct); d > 0.25*direct.AbsMax() {
		t.Fatalf("restriction far from coarse raster: RMSE %v", d)
	}
}

// BenchmarkAblationRestriction is DESIGN.md choice 4: rasterizing the
// analytic field at the coarse grid against average-pooling the fine
// raster, the restriction operator of Algorithm 1.
func BenchmarkAblationRestriction(b *testing.B) {
	const fine = 64
	w := field.Omega{0.3105, 1.5386, 0.0932, -1.2442}
	b.Run("RasterCoarse", func(b *testing.B) {
		for b.Loop() {
			field.Raster(w, 2, fine/2)
		}
	})
	b.Run("AvgPoolFine", func(b *testing.B) {
		f := tensor.New(1, 1, fine, fine)
		copy(f.Data, field.Raster(w, 2, fine).Data)
		for b.Loop() {
			RestrictInput(f)
		}
	})
}

func TestTrainerBadConfigPanics(t *testing.T) {
	for name, mod := range map[string]func(*Config){
		"dim":     func(c *Config) { c.Dim = 4 },
		"levels":  func(c *Config) { c.Levels = 0 },
		"coarse":  func(c *Config) { c.Levels = 3; c.FinestRes = 16 }, // coarsest 4 < min 8
		"batch":   func(c *Config) { c.BatchSize = 0 },
		"samples": func(c *Config) { c.Samples = 0 },
	} {
		cfg := tinyConfig(2)
		mod(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			NewTrainer(cfg)
		}()
	}
}

// TestBuildTrainerLevelsFeasible checks that BuildTrainer accepts a level
// count exactly when every level of the schedule is a grid the network
// takes: the finest resolution must halve exactly down to the coarsest
// level, and the coarsest must be a multiple of the depth-3 U-Net's
// minimum input size 8. An accepted configuration must then run.
func TestBuildTrainerLevelsFeasible(t *testing.T) {
	for _, c := range []struct {
		finest, levels int
		ok             bool
	}{
		{40, 1, true},
		{32, 2, true},
		{32, 3, true},
		{32, 4, false}, // coarsest 4 < 8
		{48, 2, true},
		{24, 2, false}, // coarsest 12 is not a multiple of 8
		{64, 4, true},
		{17, 2, false}, // 17 does not halve; 17>>1 = 8 alone would pass
	} {
		t.Run(fmt.Sprintf("%d_%dlevels", c.finest, c.levels), func(t *testing.T) {
			cfg := tinyConfig(2)
			cfg.FinestRes, cfg.Levels = c.finest, c.levels
			tr, err := BuildTrainer(cfg)
			if (err == nil) != c.ok {
				t.Fatalf("BuildTrainer error %v, want ok=%v", err, c.ok)
			}
			if err != nil {
				return
			}
			for _, st := range Schedule(V, c.levels, c.finest) {
				if err := tr.Net.ValidateRes(st.Res); err != nil {
					t.Fatalf("accepted configuration cannot train stage %+v: %v", st, err)
				}
			}
		})
	}
}

// recordingData wraps a DataSource and records every Batch request so
// tests can assert the epoch loop's batching behavior.
type recordingData struct {
	DataSource
	calls [][2]int // (start, count)
}

func (r *recordingData) Batch(start, count, res int) *tensor.Tensor {
	r.calls = append(r.calls, [2]int{start, count})
	return r.DataSource.Batch(start, count, res)
}

// With Samples % BatchSize != 0 the final batch must be clamped, not
// wrapped: wrapping re-trains the first samples a second time per epoch.
func TestTrainEpochClampsFinalBatch(t *testing.T) {
	cfg := tinyConfig(2)
	cfg.Samples = 5
	cfg.BatchSize = 2
	rec := &recordingData{DataSource: field.NewDataset(5, 2)}
	cfg.Data = rec
	tr := NewTrainer(cfg)
	if _, err := tr.TrainEpoch(8); err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 2}, {2, 2}, {4, 1}}
	if len(rec.calls) != len(want) {
		t.Fatalf("batch calls %v, want %v", rec.calls, want)
	}
	for i := range want {
		if rec.calls[i] != want[i] {
			t.Fatalf("batch call %d = %v, want %v", i, rec.calls[i], want[i])
		}
	}
	rec.calls = nil
	if _, err := tr.EvalLoss(8); err != nil {
		t.Fatal(err)
	}
	if len(rec.calls) != 3 || rec.calls[2] != [2]int{4, 1} {
		t.Fatalf("EvalLoss batch calls %v, want clamped final batch", rec.calls)
	}
}

// The epoch mean must be per-sample: partitioning 5 samples as 2+2+1 and
// as one batch of 5 must evaluate to the same dataset loss (up to fp
// summation order), which per-batch averaging gets wrong.
func TestEvalLossIsPerSampleMean(t *testing.T) {
	cfg := tinyConfig(2)
	cfg.Samples = 5
	cfg.BatchSize = 5
	whole := NewTrainer(cfg)
	cfg2 := cfg
	cfg2.BatchSize = 2
	split := NewTrainer(cfg2)
	la, err := whole.EvalLoss(16)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := split.EvalLoss(16)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(la - lb); d > 1e-12*math.Max(1, math.Abs(la)) {
		t.Fatalf("partition-dependent dataset loss: %v (batch 5) vs %v (batch 2+2+1)", la, lb)
	}
}

// Cycle re-entry must merge adjacent same-level stages across the cycle
// boundary with the later-phase-wins rule: a V cycle ends on the finest
// prolongation and re-enters with a finest restriction, and emitting both
// trains the finest level twice back to back.
func TestMultiCycleScheduleMergesCycleBoundary(t *testing.T) {
	seq := MultiCycleSchedule(V, 2, 16, 2)
	wantLv := []int{1, 2, 1, 2, 1}
	wantPh := []Phase{Restriction, Prolongation, Restriction, Prolongation, Prolongation}
	if !eqInts(levelsOf(seq), wantLv) {
		t.Fatalf("2-cycle V levels %v, want %v", levelsOf(seq), wantLv)
	}
	for i, s := range seq {
		if s.Phase != wantPh[i] {
			t.Fatalf("2-cycle V stage %d phase %v, want %v", i, s.Phase, wantPh[i])
		}
	}
	for _, s := range []Strategy{V, W, F, HalfV} {
		for _, cycles := range []int{1, 2, 3} {
			seq := MultiCycleSchedule(s, 3, 32, cycles)
			for i := 1; i < len(seq); i++ {
				if seq[i].Level == seq[i-1].Level {
					t.Errorf("%v cycles=%d: adjacent same-level stages at %d: %v",
						s, cycles, i, levelsOf(seq))
				}
			}
			last := seq[len(seq)-1]
			if last.Level != 1 || last.Phase != Prolongation {
				t.Errorf("%v cycles=%d: must end with the finest prolongation, got %+v", s, cycles, last)
			}
		}
	}
	if got := len(MultiCycleSchedule(Base, 3, 32, 4)); got != 1 {
		t.Errorf("Base with cycles should stay a single stage, got %d", got)
	}
}

func TestMultiCycleTraining(t *testing.T) {
	cfg := tinyConfig(2)
	cfg.Strategy = HalfV
	cfg.Cycles = 2
	tr := NewTrainer(cfg)
	rep := tr.Run()
	// Half-V with 2 levels has 2 stages per cycle; two cycles -> 4 stages.
	if len(rep.Stages) != 4 {
		t.Fatalf("stages %d want 4", len(rep.Stages))
	}
	// The second cycle re-descends to the coarse level.
	if rep.Stages[2].Stage.Res != 8 {
		t.Fatalf("second cycle should restart coarse, got res %d", rep.Stages[2].Stage.Res)
	}
}

func TestMultiCycleIgnoredForBase(t *testing.T) {
	cfg := tinyConfig(2)
	cfg.Strategy = Base
	cfg.Cycles = 3
	rep := NewTrainer(cfg).Run()
	if len(rep.Stages) != 1 {
		t.Fatalf("base with cycles should still be 1 stage, got %d", len(rep.Stages))
	}
}
