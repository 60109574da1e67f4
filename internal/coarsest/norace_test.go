//go:build !race

package coarsest

// raceEnabled skips the allocation pins under the race detector; see
// race_test.go.
const raceEnabled = false
