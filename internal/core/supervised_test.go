package core

import (
	"math"
	"testing"

	"mgdiffnet/internal/field"
)

func TestSupervisedTrainerReducesMSE(t *testing.T) {
	cfg := tinyConfig(2)
	cfg.Strategy = Base
	cfg.MaxEpochsPerStage = 8
	cfg.Patience = 8
	st := NewSupervisedTrainer(cfg)
	rep := st.Run()
	first := rep.History[0].Loss
	last := rep.History[len(rep.History)-1].Loss
	if !(last < first) || math.IsNaN(last) {
		t.Fatalf("MSE did not decrease: %v -> %v", first, last)
	}
	if st.LabelSeconds <= 0 {
		t.Fatal("label generation cost not recorded")
	}
}

func TestSupervisedLabelsCached(t *testing.T) {
	cfg := tinyConfig(2)
	st := NewSupervisedTrainer(cfg)
	st.TrainEpoch(8)
	afterFirst := st.LabelSeconds
	st.TrainEpoch(8)
	if st.LabelSeconds != afterFirst {
		t.Fatalf("labels re-solved on second epoch: %v -> %v", afterFirst, st.LabelSeconds)
	}
}

// BaseCurve and EvalLoss are promoted from the embedded Trainer; they must
// train and report the label MSE, not the energy loss.
func TestSupervisedBaseCurveUsesLabels(t *testing.T) {
	cfg := tinyConfig(2)
	want, err := NewSupervisedTrainer(cfg).TrainEpoch(8)
	if err != nil {
		t.Fatal(err)
	}
	st := NewSupervisedTrainer(cfg)
	curve := st.BaseCurve(8, 2)
	if curve[0].Loss != want {
		t.Fatalf("BaseCurve first epoch loss %v, want the supervised TrainEpoch's %v", curve[0].Loss, want)
	}
	if len(st.labels) != cfg.Samples {
		t.Fatalf("BaseCurve populated %d labels, want %d", len(st.labels), cfg.Samples)
	}
	energy, err := NewTrainer(cfg).EvalLoss(8)
	if err != nil {
		t.Fatal(err)
	}
	mse, err := NewSupervisedTrainer(cfg).EvalLoss(8)
	if err != nil {
		t.Fatal(err)
	}
	if mse == energy {
		t.Fatalf("supervised EvalLoss reports the energy loss %v", energy)
	}
}

func TestSupervisedHalfVSchedule(t *testing.T) {
	cfg := tinyConfig(2)
	cfg.Strategy = HalfV
	st := NewSupervisedTrainer(cfg)
	rep := st.Run()
	if len(rep.Stages) != 2 {
		t.Fatalf("stages %d", len(rep.Stages))
	}
	// Both coarse and fine labels must have been generated.
	if len(st.labels) < 2*cfg.Samples {
		t.Fatalf("expected labels at two resolutions, have %d entries", len(st.labels))
	}
}

func TestSupervisedPredictionRespectsBC(t *testing.T) {
	cfg := tinyConfig(2)
	st := NewSupervisedTrainer(cfg)
	st.Run()
	u := st.Predict(field.Omega{0.5, -0.5, 0.2, -0.1}, 16)
	for iy := 0; iy < 16; iy++ {
		if u.At(iy, 0) != 1 || u.At(iy, 15) != 0 {
			t.Fatal("supervised prediction violates BC")
		}
	}
}

func TestSupervisedGradZeroAtDirichlet(t *testing.T) {
	cfg := tinyConfig(2)
	st := NewSupervisedTrainer(cfg)
	nu := st.Data.Batch(0, 2, 8)
	pred := st.Net.Forward(nu, true)
	_, grad := st.mseLoss(pred, 0, 8)
	for b := 0; b < 2; b++ {
		for iy := 0; iy < 8; iy++ {
			if grad.At(b, 0, iy, 0) != 0 || grad.At(b, 0, iy, 7) != 0 {
				t.Fatal("MSE gradient leaked onto Dirichlet nodes")
			}
		}
	}
}
