//go:build race

package sim

// raceEnabled: under the race detector the n=96 rank scans of
// TestStoppingMatchesScan take over a minute and a half, most of the raced
// package's time budget; the unraced run keeps them.
const raceEnabled = true
