//go:build race

package coarsest

// raceEnabled skips the allocation pins: the race detector's
// instrumentation allocates on its own, so counts taken under it say
// nothing about the solver.
const raceEnabled = true
