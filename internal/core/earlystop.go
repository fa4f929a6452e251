package core

// EarlyStopper implements the paper's early-stopping criterion used to
// decide when a prolongation stage has converged: training stops when the
// best loss has not improved by at least MinDelta for Patience consecutive
// epochs.
type EarlyStopper struct {
	// Patience is the number of epochs without improvement tolerated.
	Patience int
	// MinDelta is the minimum loss decrease that counts as improvement.
	MinDelta float64

	best    float64
	bad     int
	started bool
}

// NewEarlyStopper constructs a stopper; patience must be >= 1.
func NewEarlyStopper(patience int, minDelta float64) *EarlyStopper {
	if patience < 1 {
		panic("core: patience must be >= 1")
	}
	return &EarlyStopper{Patience: patience, MinDelta: minDelta}
}

// Observe records an epoch loss and reports whether training should stop.
func (e *EarlyStopper) Observe(loss float64) bool {
	if !e.started || loss < e.best-e.MinDelta {
		e.best = loss
		e.bad = 0
		e.started = true
		return false
	}
	e.bad++
	return e.bad >= e.Patience
}

// StopperState is the serializable snapshot of an EarlyStopper's progress,
// saved inside training checkpoints so a resumed prolongation stage stops
// at exactly the epoch the uninterrupted run would have stopped at.
type StopperState struct {
	Best    float64
	Bad     int
	Started bool
}

// State snapshots the stopper's progress.
func (e *EarlyStopper) State() StopperState {
	return StopperState{Best: e.best, Bad: e.bad, Started: e.started}
}

// Restore overwrites the stopper's progress with a saved snapshot.
func (e *EarlyStopper) Restore(s StopperState) {
	e.best, e.bad, e.started = s.Best, s.Bad, s.Started
}
