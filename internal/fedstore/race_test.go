//go:build race

package fedstore

// raceEnabled: the race detector makes sync.Pool drop a quarter of what is
// put back, so allocation budgets that rely on reused scratches cannot hold
// under it.
const raceEnabled = true
