//go:build race

package sim

// raceEnabled: under the race detector the n=96 rank scans of
// TestStoppingMatchesScan take over a minute and a half, most of the raced
// package's time budget, and the single-goroutine oracle loops of the
// arrival-order tests another minute; the unraced run keeps them.
const raceEnabled = true
