//go:build race

package serve

// raceEnabled: the race detector makes sync.Pool drop a quarter of what is
// put back, so tests that count scratches built cannot hold under it.
const raceEnabled = true
