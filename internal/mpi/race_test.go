//go:build race

package mpi

// raceEnabled reports whether the test binary runs under the race
// detector.
const raceEnabled = true
